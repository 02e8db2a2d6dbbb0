package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/fleet"
)

// panicInjector panics inside the rig on the first stress slice — the
// "impossible state" class of bug a hardware driver hits, as opposed to
// the typed errors SeededInjector returns.
type panicInjector struct {
	*faults.SeededInjector
}

func (panicInjector) OpError(op faults.Op, clockHours float64) error {
	if op == faults.OpStress {
		panic(fmt.Sprintf("injected rig panic at t=%.1fh: regulator state machine wedged", clockHours))
	}
	return nil
}

// Inert must report false or the rig's no-fault fast path would never
// consult OpError (the embedded zero-profile SeededInjector is inert).
func (panicInjector) Inert() bool { return false }

// TestSlotPanicQuarantinesOnlyItsCampaign pins the containment
// contract: a panicking slot worker becomes a permanent fault on that
// carrier — breaker trip, re-route to a spare if one exists, a typed
// campaign failure if not — and every other tenant's campaign completes
// and decodes as if nothing happened. Before this hardening the panic
// unwound the slot goroutine and killed the whole process.
func TestSlotPanicQuarantinesOnlyItsCampaign(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Config{
		KeyFor: testKeyFor,
		InjectorFor: func(serial string) faults.Injector {
			if strings.HasPrefix(serial, "boom") {
				return panicInjector{faults.New(faults.Profile{}, serial)}
			}
			return nil
		},
		Breakers: fleet.NewBreakerSet(fleet.BreakerConfig{
			FailureThreshold: 1, BaseBackoffHours: 1, QuarantineAfterTrips: 1,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy := miniSub("alice", "pan-ok", []string{"pok-0"}, 7.5)
	rerouted := miniSub("bob", "pan-reroute", []string{"boom-0"}, 7.5, "pspare-0")
	doomed := miniSub("carol", "pan-doomed", []string{"boom-1"}, 7.5)
	for _, sub := range []Submission{healthy, rerouted, doomed} {
		if err := s.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	drainOK(t, s)

	if err := s.Err(); err != nil {
		t.Fatalf("a slot panic killed the scheduler: %v", err)
	}
	st := s.Status()
	if st.Done != 2 || st.Failed != 1 {
		t.Fatalf("panic storm: done=%d failed=%d, want 2/1 (%+v)", st.Done, st.Failed, st)
	}
	ok, _ := s.Campaign("pan-ok")
	if ok.State != "done" {
		t.Fatalf("healthy campaign: %+v", ok)
	}
	if got := decodeCampaign(t, dir, "alice", "pan-ok"); !bytes.Equal(got, healthy.Spec.Message) {
		t.Fatalf("healthy campaign decodes to %q", got)
	}
	rr, _ := s.Campaign("pan-reroute")
	if rr.State != "done" {
		t.Fatalf("rerouted campaign: %+v", rr)
	}
	if got := decodeCampaign(t, dir, "bob", "pan-reroute"); !bytes.Equal(got, rerouted.Spec.Message) {
		t.Fatalf("rerouted campaign decodes to %q", got)
	}
	dd, _ := s.Campaign("pan-doomed")
	if dd.State != "failed" {
		t.Fatalf("doomed campaign: %+v", dd)
	}
	if !strings.Contains(dd.Error, "panicked") {
		t.Fatalf("doomed campaign's error hides the panic: %q", dd.Error)
	}
}

// stressDropInjector drops the debugger link on every stress slice: the
// carrier takes chamber passes and never makes durable progress.
type stressDropInjector struct {
	*faults.SeededInjector
}

func (stressDropInjector) OpError(op faults.Op, _ float64) error {
	if op == faults.OpStress {
		return faults.ErrLinkDropped
	}
	return nil
}

// Inert reports false so the rig consults OpError (see panicInjector).
func (stressDropInjector) Inert() bool { return false }

// TestBarrenCampaignFails pins the barren-pass cap: a campaign whose
// carrier fails every stress slice transiently, with no breaker to write
// it off, fails after DefaultMaxBarrenPasses consecutive passes without
// durable progress instead of holding its queue position forever — and
// a healthy tenant sharing those passes finishes and decodes.
func TestBarrenCampaignFails(t *testing.T) {
	dir := t.TempDir()
	healthy := miniSub("alice", "bar-ok", []string{"bok-0"}, 7.5)
	barren := miniSub("bob", "bar-stuck", []string{"barren-0"}, 7.5)
	// Both are admitted before the loop starts, so every pass is counted.
	s := newQueued(t, dir, Config{
		KeyFor: testKeyFor,
		InjectorFor: func(serial string) faults.Injector {
			if strings.HasPrefix(serial, "barren") {
				return stressDropInjector{faults.New(faults.Profile{}, serial)}
			}
			return nil
		},
	}, []Submission{healthy, barren})
	drainOK(t, s)

	if err := s.Err(); err != nil {
		t.Fatalf("a barren campaign killed the scheduler: %v", err)
	}
	st := s.Status()
	if st.Done != 1 || st.Failed != 1 {
		t.Fatalf("done=%d failed=%d, want 1/1 (%+v)", st.Done, st.Failed, st)
	}
	// The first pass prepares both slots (durable progress); the
	// barren one then fails every stress slice.
	if st.Passes != DefaultMaxBarrenPasses+1 {
		t.Fatalf("%d passes, want %d", st.Passes, DefaultMaxBarrenPasses+1)
	}
	ok, _ := s.Campaign("bar-ok")
	if ok.State != "done" {
		t.Fatalf("healthy campaign: %+v", ok)
	}
	if got := decodeCampaign(t, dir, "alice", "bar-ok"); !bytes.Equal(got, healthy.Spec.Message) {
		t.Fatalf("healthy campaign decodes to %q", got)
	}
	stuck, _ := s.Campaign("bar-stuck")
	want := fmt.Sprintf("no durable progress in %d consecutive passes", DefaultMaxBarrenPasses)
	if stuck.State != "failed" || !strings.Contains(stuck.Error, want) {
		t.Fatalf("barren campaign: state %q, error %q, want failed with %q", stuck.State, stuck.Error, want)
	}
}

// TestGracefulStopResumesBitIdentically pins the SIGTERM contract: a
// Stop mid-flight halts at a pass boundary with the journal closed
// cleanly, and a Resume of the same directory finishes every campaign
// with results, images, decoded messages, and baselines bit-identical
// to an uninterrupted reference run.
func TestGracefulStopResumesBitIdentically(t *testing.T) {
	base := t.TempDir()
	subs := []Submission{
		miniSub("alice", "gs-a", []string{"gsa-0"}, 10),
		miniSub("bob", "gs-b", []string{"gsb-0"}, 10),
	}
	cfg := Config{KeyFor: testKeyFor}

	collect := func(t *testing.T, s *Scheduler, dir string) map[string]outcomeCmp {
		t.Helper()
		out := map[string]outcomeCmp{}
		for _, sub := range subs {
			id := sub.Spec.ID
			cs, ok := s.Campaign(id)
			if !ok || cs.State != "done" {
				t.Fatalf("campaign %s not done: %+v", id, cs)
			}
			out[id] = outcomeCmp{
				message:   decodeCampaign(t, dir, sub.Tenant, id),
				baselines: cs.Baselines,
			}
		}
		return out
	}

	refDir := filepath.Join(base, "ref")
	ref, err := New(refDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := ref.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	drainOK(t, ref)
	want := collect(t, ref, refDir)

	// Interrupted run: stop as soon as at least one pass has landed.
	dir := filepath.Join(base, "stopped")
	s, err := New(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := s.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.Status().Passes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no pass completed before the stop window")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("graceful stop left a fatal error: %v", err)
	}
	if !s.Status().Stopping {
		t.Fatal("status does not report the stop")
	}
	if err := s.Submit(miniSub("dave", "gs-late", []string{"gsl-0"}, 5)); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: %v, want ErrStopped", err)
	}
	if err := s.Drain(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("drain after stop: %v, want ErrStopped", err)
	}

	// The next incarnation picks up exactly where the stop left off.
	rs, err := Resume(dir, cfg)
	if err != nil {
		t.Fatalf("resume after stop: %v", err)
	}
	if rs.Salvage().Degraded() {
		t.Fatalf("clean stop resumed degraded: %+v", rs.Salvage())
	}
	drainOK(t, rs)
	assertOutcomes(t, "graceful stop", collect(t, rs, dir), want)
}

// TestChaosStormDrill is the acceptance drill for the whole hardening
// stack: N tenants submit concurrently through a faulty network (drops,
// stalls, lost responses, truncated bodies, mid-body resets) while the
// server is killed mid-storm and resumed behind the same address with a
// listener outage in between. Every campaign must complete with an
// exact decode, and the journal must hold exactly one admission per
// campaign — the lost-response retries never double-submitted.
func TestChaosStormDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm skipped in -short")
	}
	goroutinesBefore := runtime.NumGoroutine()

	dir := t.TempDir()
	const tenants = 8
	subs := make([]Submission, tenants)
	for i := range subs {
		subs[i] = miniSub(fmt.Sprintf("storm-%02d", i), fmt.Sprintf("st-%02d", i),
			[]string{fmt.Sprintf("stm%02d-0", i)}, 7.5)
	}
	cfg := Config{KeyFor: testKeyFor}

	// Incarnation 1 dies on its 40th journal touch — mid-storm, while
	// submissions and passes race.
	ks := faults.NewKillSwitch(40)
	killCfg := cfg
	killCfg.Hook = ks.Hook()
	s1, err := New(dir, killCfg)
	if err != nil {
		t.Fatal(err)
	}

	// One stable front URL delegating to whichever incarnation is live,
	// like a port held by a supervisor across restarts.
	var current atomic.Pointer[Server]
	current.Store(NewServer(s1))
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer front.Close()

	chaos := faults.NewHTTPChaos(faults.HTTPProfile{
		Seed:             42,
		DropRate:         0.05,
		StallRate:        0.10,
		StallMax:         2 * time.Millisecond,
		ResponseLossRate: 0.05,
		TruncateRate:     0.05,
		ResetRate:        0.05,
	})

	// The supervisor: when incarnation 1 dies, the listener bounces a
	// few connections, the journal is resumed, and the replacement takes
	// over the front URL.
	resumed := make(chan *Scheduler, 1)
	go func() {
		<-s1.Done()
		if s1.Err() == nil {
			return
		}
		chaos.KillListener(5)
		s2, err := Resume(dir, cfg)
		if err != nil {
			t.Errorf("resume after kill: %v", err)
			close(resumed)
			return
		}
		current.Store(NewServer(s2))
		resumed <- s2
	}()

	// The storm: every tenant hammers the front door concurrently
	// through the chaos layer. Backoff waits are capped at 20ms of real
	// time so the server's honest Retry-After seconds do not stretch the
	// test; the schedule itself is pinned in the client tests.
	newClient := func() *Client {
		return &Client{
			BaseURL:     front.URL,
			HTTP:        &http.Client{Transport: chaos.Transport(nil)},
			MaxAttempts: 200,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			Sleep: func(ctx context.Context, d time.Duration) error {
				if d > 20*time.Millisecond {
					d = 20 * time.Millisecond
				}
				timer := time.NewTimer(d)
				defer timer.Stop()
				select {
				case <-timer.C:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	submitErrs := make([]error, tenants)
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			submitErrs[i] = newClient().Submit(ctx, subs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range submitErrs {
		if err != nil {
			t.Fatalf("tenant %d submit never landed: %v", i, err)
		}
	}

	// The kill must actually have happened for the drill to mean
	// anything; wait for the replacement before draining.
	var s2 *Scheduler
	select {
	case s2 = <-resumed:
		if s2 == nil {
			t.Fatal("resume failed")
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("incarnation 1 never died (kill switch fired=%v)", ks.Fired())
	}
	if !ks.Fired() {
		t.Fatal("kill switch never fired")
	}

	c := newClient()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, err := c.AwaitQuiescent(ctx, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("await quiescence: %v", err)
	}
	if st.Done != tenants || st.Failed != 0 || st.Active != 0 {
		t.Fatalf("storm outcome: done=%d failed=%d active=%d, want %d/0/0",
			st.Done, st.Failed, st.Active, tenants)
	}

	// Every campaign decodes exactly despite the network and the kill.
	for _, sub := range subs {
		if got := decodeCampaign(t, dir, sub.Tenant, sub.Spec.ID); !bytes.Equal(got, sub.Spec.Message) {
			t.Fatalf("campaign %s decodes to %q", sub.Spec.ID, got)
		}
	}

	// Zero duplicate admissions: lost responses were retried, but the
	// digest handshake kept every retry from double-submitting.
	entries := readJournal(t, filepath.Join(dir, JournalFile))
	admissions := map[string]int{}
	for _, e := range entries {
		if e.Type == entrySubmit {
			admissions[e.Campaign]++
		}
	}
	for _, sub := range subs {
		if n := admissions[sub.Spec.ID]; n != 1 {
			t.Fatalf("campaign %s admitted %d times, want exactly 1", sub.Spec.ID, n)
		}
	}

	// No goroutine pile-up: the storm's clients, both incarnations, and
	// the supervisor have all wound down (generous slack for the HTTP
	// stack's idle keep-alive machinery).
	front.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	settled := goroutinesBefore + 15
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= settled {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > settled {
		t.Fatalf("goroutines grew from %d to %d", goroutinesBefore, n)
	}
}
