package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/fleet"
	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/wal"
)

// testKeyFor derives a deterministic per-campaign key — the same
// function handed to a resumed scheduler reproduces the same keys, so
// crash/resume comparisons stay bit-identical.
func testKeyFor(tenant, id string) *stegocrypt.Key {
	k := stegocrypt.KeyFromPassphrase("sched-test|" + tenant + "|" + id)
	return &k
}

// miniSub is a one-board MSP430G2553 campaign: the smallest, fastest
// device, a short message under the paper codec, 2.5h slices. Decode
// margin depends on the soak: at 5h roughly a third of (serial,
// message) pairs still fail the integrity digest, while 7.5h decodes
// cleanly across the board — tests that assert decode use ≥ 7.5h.
func miniSub(tenant, id string, serials []string, stress float64, spares ...string) Submission {
	return Submission{
		Tenant: tenant,
		Spares: spares,
		Spec: Spec{
			ID:              id,
			Model:           "MSP430G2553",
			Serials:         serials,
			Message:         []byte("payload for " + id),
			Codec:           "paper",
			StressHours:     stress,
			SliceHours:      2.5,
			CheckpointEvery: 2,
		},
	}
}

func drainOK(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func decodeCampaign(t *testing.T, root, tenant, id string) []byte {
	t.Helper()
	got, err := DecodeResult(context.Background(),
		filepath.Join(root, campaignsDir, id), testKeyFor(tenant, id))
	if err != nil {
		t.Fatalf("decode campaign %s: %v", id, err)
	}
	return got
}

func TestSchedulerRunsCampaignsAndDecodes(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Config{KeyFor: testKeyFor})
	if err != nil {
		t.Fatal(err)
	}
	subs := []Submission{
		miniSub("alice", "a-1", []string{"al-0"}, 7.5),
		miniSub("bob", "b-1", []string{"bo-0", "bo-1"}, 7.5),
	}
	for _, sub := range subs {
		if err := s.Submit(sub); err != nil {
			t.Fatalf("submit %s: %v", sub.Spec.ID, err)
		}
	}
	drainOK(t, s)

	st := s.Status()
	if st.Done != 2 || st.Failed != 0 || st.Active != 0 {
		t.Fatalf("status after drain: %+v", st)
	}
	if st.Passes == 0 || st.ChamberHours <= 0 {
		t.Fatalf("no chamber activity recorded: %+v", st)
	}
	if st.LatencyP99 <= 0 || st.CampaignsPerChamberHour <= 0 {
		t.Fatalf("throughput metrics missing: %+v", st)
	}
	for _, sub := range subs {
		cs, ok := s.Campaign(sub.Spec.ID)
		if !ok || cs.State != "done" {
			t.Fatalf("campaign %s: %+v (ok=%v)", sub.Spec.ID, cs, ok)
		}
		if len(cs.Baselines) == 0 {
			t.Fatalf("campaign %s finished without baseline margins", sub.Spec.ID)
		}
		for _, m := range cs.Baselines {
			if m <= 0.5 || m > 1 {
				t.Fatalf("campaign %s baseline margin %v out of range", sub.Spec.ID, m)
			}
		}
		got := decodeCampaign(t, dir, sub.Tenant, sub.Spec.ID)
		if !bytes.Equal(got, sub.Spec.Message) {
			t.Fatalf("campaign %s decodes to %q", sub.Spec.ID, got)
		}
	}
	// Submitting after drain is a typed rejection.
	if err := s.Submit(miniSub("carol", "c-1", []string{"ca-0"}, 5)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
}

// newIdleScheduler builds a scheduler whose loop never runs, so
// admission decisions can be tested without racing campaign execution.
func newIdleScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, campaignsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := wal.Create(filepath.Join(dir, journalFile), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return newScheduler(dir, cfg, j)
}

func TestAdmissionControlTypedRejections(t *testing.T) {
	s := newIdleScheduler(t, Config{
		MaxQueued: 4,
		DefaultQuota: Quota{
			MaxCampaigns: 2, MaxDevices: 3, MaxChamberHours: 100,
		},
		Quotas: map[string]Quota{
			"big": {MaxCampaigns: 10, MaxDevices: 100, MaxChamberHours: 6},
		},
	})

	if err := s.Submit(miniSub("alice", "a-1", []string{"al-0"}, 5)); err != nil {
		t.Fatal(err)
	}
	// Duplicate campaign ID.
	if err := s.Submit(miniSub("alice", "a-1", []string{"al-9"}, 5)); !errors.Is(err, ErrDuplicateCampaign) {
		t.Fatalf("duplicate ID: %v", err)
	}
	// Serial already owned — by another tenant, even.
	if err := s.Submit(miniSub("bob", "b-1", []string{"al-0"}, 5)); !errors.Is(err, ErrSerialInUse) {
		t.Fatalf("serial conflict: %v", err)
	}
	// Device quota: alice holds 1, a 3-board submission would make 4 > 3.
	if err := s.Submit(miniSub("alice", "a-2", []string{"al-1", "al-2"}, 5, "al-3")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("device quota: %v", err)
	}
	// Campaign quota: second campaign fits, third does not.
	if err := s.Submit(miniSub("alice", "a-2", []string{"al-1"}, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(miniSub("alice", "a-3", []string{"al-5"}, 5)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("campaign quota: %v", err)
	}
	// Chamber-hour quota (per-tenant override): 5h fits in 6, 5 more do not.
	if err := s.Submit(miniSub("big", "g-1", []string{"bg-0"}, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(miniSub("big", "g-2", []string{"bg-1"}, 5)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("chamber-hour quota: %v", err)
	}
	// Queue saturation: fill the fourth slot, then the fifth submission
	// bounces with backpressure.
	if err := s.Submit(miniSub("dave", "d-1", []string{"dv-0"}, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(miniSub("carol", "c-1", []string{"ca-0"}, 5)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturation: %v", err)
	}
	// Structural rejections never reach the journal.
	bad := miniSub("dave", "", []string{"da-0"}, 5)
	if err := s.Submit(bad); err == nil {
		t.Fatal("empty campaign ID accepted")
	}
	if err := s.Submit(Submission{Spec: miniSub("x", "x-1", []string{"x-0"}, 5).Spec}); err == nil {
		t.Fatal("submission without tenant accepted")
	}
	dupSpare := miniSub("erin", "e-1", []string{"er-0"}, 5, "er-0")
	if err := s.Submit(dupSpare); err == nil {
		t.Fatal("spare duplicating a serial accepted")
	}
}

// TestBatchingReducesChamberHours is the economics claim: campaigns
// sharing a (V, T) operating point coalesce their stress slices into
// shared chamber passes, so four one-board campaigns cost barely more
// chamber time than one — while the unbatched control pays full price.
func TestBatchingReducesChamberHours(t *testing.T) {
	run := func(disable bool) (Status, string) {
		dir := t.TempDir()
		s, err := New(dir, Config{KeyFor: testKeyFor, DisableBatching: disable})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			sub := miniSub(fmt.Sprintf("t%d", i), fmt.Sprintf("c-%d", i),
				[]string{fmt.Sprintf("s%d-0", i)}, 7.5)
			if err := s.Submit(sub); err != nil {
				t.Fatal(err)
			}
		}
		drainOK(t, s)
		return s.Status(), dir
	}

	batched, bdir := run(false)
	unbatched, _ := run(true)
	if batched.Done != 4 || unbatched.Done != 4 {
		t.Fatalf("done: batched %d, unbatched %d", batched.Done, unbatched.Done)
	}
	if batched.ChamberHours >= unbatched.ChamberHours {
		t.Fatalf("batching saved nothing: %.2fh batched vs %.2fh unbatched",
			batched.ChamberHours, unbatched.ChamberHours)
	}
	if batched.BatchedSlices == 0 {
		t.Fatal("batched run recorded no batched slices")
	}
	if unbatched.BatchedSlices != 0 {
		t.Fatalf("unbatched run recorded %d batched slices", unbatched.BatchedSlices)
	}
	// Batching must be invisible to the physics: every batched campaign
	// still decodes.
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("c-%d", i)
		got := decodeCampaign(t, bdir, fmt.Sprintf("t%d", i), id)
		if !bytes.Equal(got, []byte("payload for "+id)) {
			t.Fatalf("batched campaign %s decodes to %q", id, got)
		}
	}
	t.Logf("chamber hours: batched %.2f, unbatched %.2f (%.0f%% saved)",
		batched.ChamberHours, unbatched.ChamberHours,
		100*(1-batched.ChamberHours/unbatched.ChamberHours))
}

// TestStarvationGuardGrantsSoloPass pins the fairness deadline: a
// campaign whose operating point never matches the batch leader's must
// still run once it has been passed over StarveLimit times — promoted
// to lead, the chamber re-targets to its (V, T); with no compatible
// peers it runs alone — instead of waiting for every competing
// campaign to finish.
//
// Every campaign is admitted before the loop starts: submitted to a
// running loop, the hogs could finish before the starved campaign is
// even queued, and the test would time its own submissions instead.
func TestStarvationGuardGrantsSoloPass(t *testing.T) {
	var subs []Submission
	// Three long G2553 campaigns (3.6V) hog the chamber...
	for i := 0; i < 3; i++ {
		subs = append(subs, miniSub(fmt.Sprintf("hog%d", i), fmt.Sprintf("hog-%d", i),
			[]string{fmt.Sprintf("hg%d-0", i)}, 10))
	}
	// ...while one MSP432P401 campaign (3.3V — never batchable with the
	// hogs) needs a single 2.5h slice.
	subs = append(subs, Submission{
		Tenant: "starved",
		Spec: Spec{
			ID: "starved-1", Model: "MSP432P401", Serials: []string{"st-0"},
			Message: []byte("payload for starved-1"), StressHours: 2.5, SliceHours: 2.5,
		},
	})
	s := newQueued(t, t.TempDir(), Config{KeyFor: testKeyFor, StarveLimit: 2}, subs)
	drainOK(t, s)

	st := s.Status()
	if st.Done != 4 {
		t.Fatalf("done = %d, want 4: %+v", st.Done, st)
	}
	sv, _ := s.Campaign("starved-1")
	for i := 0; i < 3; i++ {
		hog, _ := s.Campaign(fmt.Sprintf("hog-%d", i))
		if sv.DoneAt >= hog.DoneAt {
			t.Fatalf("starved campaign finished at %.2fh, after hog-%d (%.2fh) — the starvation guard never fired",
				sv.DoneAt, i, hog.DoneAt)
		}
	}
}

// TestSchedulerCrashMatrix is the tentpole acceptance test at service
// scope: the whole scheduler — tenant table, queue, batch assignments,
// every slot — is killed at EVERY kill point in turn (every journal
// append, image write, spec write, result write), resumed, re-submitted
// (idempotently), drained, and the outcome must be bit-identical to an
// uninterrupted reference: same result.json bytes, same final device
// images, same decoded messages, same baseline margins.
func TestSchedulerCrashMatrix(t *testing.T) {
	base := t.TempDir()
	subs := []Submission{
		miniSub("alice", "mx-a", []string{"mxa-0"}, 7.5),
		miniSub("bob", "mx-b", []string{"mxb-0"}, 7.5),
	}
	cfg := Config{KeyFor: testKeyFor}

	collect := func(t *testing.T, s *Scheduler, dir string) map[string]outcomeCmp {
		t.Helper()
		out := map[string]outcomeCmp{}
		for _, sub := range subs {
			id := sub.Spec.ID
			cdir := filepath.Join(dir, campaignsDir, id)
			res, err := os.ReadFile(filepath.Join(cdir, "result.json"))
			if err != nil {
				t.Fatalf("campaign %s result: %v", id, err)
			}
			img, err := os.ReadFile(filepath.Join(cdir, "slot-0-final.img"))
			if err != nil {
				t.Fatalf("campaign %s image: %v", id, err)
			}
			cs, ok := s.Campaign(id)
			if !ok || cs.State != "done" {
				t.Fatalf("campaign %s not done: %+v", id, cs)
			}
			out[id] = outcomeCmp{
				result:    res,
				image:     img,
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

	points := 0
	for k := 0; ; k++ {
		dir := filepath.Join(base, fmt.Sprintf("k%03d", k))
		ks := faults.NewKillSwitch(k)
		killCfg := cfg
		killCfg.Hook = ks.Hook()
		s, err := New(dir, killCfg)
		if err != nil {
			t.Fatalf("kill point %d: new: %v", k, err)
		}
		for _, sub := range subs {
			s.Submit(sub) //nolint:errcheck // a fired kill point rejects later submits
		}
		drainErr := s.Drain(context.Background())
		if !ks.Fired() {
			// k is past the last kill point: this run completed clean.
			if drainErr != nil {
				t.Fatalf("unkilled run failed: %v", drainErr)
			}
			got := collect(t, s, dir)
			assertOutcomes(t, fmt.Sprintf("clean run k=%d", k), got, want)
			points = k
			break
		}
		if drainErr == nil {
			t.Fatalf("kill point %d fired but Drain reported success", k)
		}
		if !errors.Is(s.Err(), faults.ErrKilled) {
			t.Fatalf("kill point %d died with %v, want ErrKilled", k, s.Err())
		}

		rs, err := Resume(dir, cfg)
		if err != nil {
			t.Fatalf("resume after kill point %d: %v", k, err)
		}
		for _, sub := range subs {
			if err := rs.Submit(sub); err != nil && !errors.Is(err, ErrDuplicateCampaign) {
				t.Fatalf("re-submit %s after kill point %d: %v", sub.Spec.ID, k, err)
			}
		}
		if err := rs.Drain(context.Background()); err != nil {
			t.Fatalf("drain after kill point %d: %v", k, err)
		}
		got := collect(t, rs, dir)
		assertOutcomes(t, fmt.Sprintf("kill point %d", k), got, want)
	}
	if points < 20 {
		t.Fatalf("crash matrix covered only %d kill points", points)
	}
	t.Logf("scheduler crash matrix: %d kill points, all resumed bit-identically", points)
}

// outcomeCmp is everything bit-identity is asserted over: the sealed
// result, the final device image, the decoded message, the baselines.
type outcomeCmp struct {
	result    []byte
	image     []byte
	message   []byte
	baselines []float64
}

func assertOutcomes(t *testing.T, label string, got, want map[string]outcomeCmp) {
	t.Helper()
	for id, w := range want {
		g := got[id]
		if !bytes.Equal(g.result, w.result) {
			t.Fatalf("%s: campaign %s result.json differs from reference", label, id)
		}
		if !bytes.Equal(g.image, w.image) {
			t.Fatalf("%s: campaign %s final image differs from reference", label, id)
		}
		if !bytes.Equal(g.message, w.message) {
			t.Fatalf("%s: campaign %s decodes differently", label, id)
		}
		if len(g.baselines) != len(w.baselines) {
			t.Fatalf("%s: campaign %s baselines %v vs %v", label, id, g.baselines, w.baselines)
		}
		for i := range w.baselines {
			if g.baselines[i] != w.baselines[i] {
				t.Fatalf("%s: campaign %s baseline %d: %v vs %v", label, id, i, g.baselines[i], w.baselines[i])
			}
		}
	}
}

// TestKillIsNotACarrierFault sweeps the kill points of the scheduler
// drill's scenario (a healthy campaign, a two-carrier one, one whose
// carrier dies with a spare standing by, one doomed without a spare)
// with one strict breaker set — a single failure trips a carrier, a
// single trip quarantines it — shared by the killed run and its
// resume, as a caller that keeps its breakers across a restart does.
// A kill is the scheduler's own failure, not the carriers', so after
// every resume three campaigns are done and only the doomed one fails.
// Before runSlot stopped charging scheduler-fatal errors to the
// breaker, healthy carriers were quarantined at most kill points.
func TestKillIsNotACarrierFault(t *testing.T) {
	base := t.TempDir()
	injectorFor := func(serial string) faults.Injector {
		if len(serial) >= 4 && serial[:4] == "dead" {
			return faults.New(faults.Profile{Seed: 11, FailAtHours: 1}, serial)
		}
		return nil
	}
	subs := []Submission{
		miniSub("alice", "kb-a", []string{"kba-0"}, 7.5),
		miniSub("bob", "kb-b", []string{"kbb-0", "kbb-1"}, 7.5),
		miniSub("carol", "kb-c", []string{"dead-0"}, 7.5, "spare-0"),
		miniSub("dave", "kb-d", []string{"dead-1"}, 7.5),
	}
	points := 0
	for k := 0; ; k++ {
		cfg := Config{
			KeyFor:      testKeyFor,
			InjectorFor: injectorFor,
			Breakers: fleet.NewBreakerSet(fleet.BreakerConfig{
				FailureThreshold: 1, BaseBackoffHours: 1, QuarantineAfterTrips: 1,
			}),
		}
		dir := filepath.Join(base, fmt.Sprintf("k%03d", k))
		ks := faults.NewKillSwitch(k)
		killCfg := cfg
		killCfg.Hook = ks.Hook()
		s, err := New(dir, killCfg)
		if err != nil {
			t.Fatalf("kill point %d: new: %v", k, err)
		}
		for _, sub := range subs {
			s.Submit(sub) //nolint:errcheck // a fired kill point rejects later submits
		}
		drainErr := s.Drain(context.Background())
		if !ks.Fired() {
			// k is past the last kill point: this run completed clean.
			if drainErr != nil {
				t.Fatalf("unkilled run failed: %v", drainErr)
			}
			points = k
			break
		}

		rs, err := Resume(dir, cfg)
		if err != nil {
			t.Fatalf("resume after kill point %d (%s): %v", k, ks.FiredAt(), err)
		}
		for _, sub := range subs {
			if err := rs.Submit(sub); err != nil && !errors.Is(err, ErrDuplicateCampaign) {
				t.Fatalf("re-submit %s after kill point %d: %v", sub.Spec.ID, k, err)
			}
		}
		drainOK(t, rs)
		for _, sub := range subs {
			want := "done"
			if sub.Spec.ID == "kb-d" {
				want = "failed"
			}
			if cs, _ := rs.Campaign(sub.Spec.ID); cs.State != want {
				t.Fatalf("kill point %d (%s): campaign %s is %s (%s), want %s",
					k, ks.FiredAt(), sub.Spec.ID, cs.State, cs.Error, want)
			}
		}
		os.RemoveAll(dir)
	}
	if points < 20 {
		t.Fatalf("kill sweep covered only %d kill points", points)
	}
	t.Logf("kill sweep: %d kill points, no carrier charged for a kill", points)
}

// TestFaultStormDegradesGracefully pins the degradation contract: a
// carrier dying mid-batch re-routes its campaign to a spare, a campaign
// with no spares left fails with a typed per-tenant error, and
// unaffected tenants' campaigns complete untouched — the scheduler
// never stalls.
func TestFaultStormDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	// Carriers whose serial starts with "dead" die permanently 1h into
	// their soak; everything else is healthy.
	injectorFor := func(serial string) faults.Injector {
		if len(serial) >= 4 && serial[:4] == "dead" {
			return faults.New(faults.Profile{Seed: 11, FailAtHours: 1}, serial)
		}
		return nil
	}
	s, err := New(dir, Config{
		KeyFor:      testKeyFor,
		InjectorFor: injectorFor,
		Breakers: fleet.NewBreakerSet(fleet.BreakerConfig{
			FailureThreshold: 1, BaseBackoffHours: 1, QuarantineAfterTrips: 1,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy := miniSub("alice", "storm-ok", []string{"ok-0"}, 7.5)
	rerouted := miniSub("bob", "storm-reroute", []string{"dead-0"}, 7.5, "spare-0")
	doomed := miniSub("carol", "storm-doomed", []string{"dead-1"}, 7.5)
	for _, sub := range []Submission{healthy, rerouted, doomed} {
		if err := s.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	drainOK(t, s)

	st := s.Status()
	if st.Done != 2 || st.Failed != 1 {
		t.Fatalf("fault storm: done=%d failed=%d, want 2/1 (%+v)", st.Done, st.Failed, st)
	}
	ok, _ := s.Campaign("storm-ok")
	if ok.State != "done" {
		t.Fatalf("healthy campaign: %+v", ok)
	}
	if got := decodeCampaign(t, dir, "alice", "storm-ok"); !bytes.Equal(got, healthy.Spec.Message) {
		t.Fatalf("healthy campaign decodes to %q", got)
	}
	rr, _ := s.Campaign("storm-reroute")
	if rr.State != "done" {
		t.Fatalf("rerouted campaign: %+v", rr)
	}
	if got := decodeCampaign(t, dir, "bob", "storm-reroute"); !bytes.Equal(got, rerouted.Spec.Message) {
		t.Fatalf("rerouted campaign decodes to %q", got)
	}
	dd, _ := s.Campaign("storm-doomed")
	if dd.State != "failed" || dd.Error == "" {
		t.Fatalf("doomed campaign: %+v", dd)
	}
	if ten := st.Tenants["carol"]; ten.Failed != 1 {
		t.Fatalf("carol's failure not attributed: %+v", ten)
	}
}

// TestSoakKillResume is the CI smoke: 100 tenants, killed mid-flight,
// resumed, drained — everything completes and spot-checked campaigns
// decode. (The full per-point matrix lives in TestSchedulerCrashMatrix;
// this one exercises scale.)
func TestSoakKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short")
	}
	dir := t.TempDir()
	const tenants = 100
	subs := make([]Submission, tenants)
	for i := range subs {
		subs[i] = miniSub(fmt.Sprintf("tenant-%03d", i), fmt.Sprintf("soak-%03d", i),
			[]string{fmt.Sprintf("sk%03d-0", i)}, 7.5)
	}
	ks := faults.NewKillSwitch(tenants*3 + 57) // lands mid-execution, past admission
	s, err := New(dir, Config{KeyFor: testKeyFor, Hook: ks.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		s.Submit(sub) //nolint:errcheck // the kill may land during admission
	}
	if err := s.Drain(context.Background()); err == nil {
		t.Fatal("killed soak drained cleanly — kill point never fired?")
	}
	if !ks.Fired() {
		t.Fatal("kill switch never fired")
	}

	rs, err := Resume(dir, Config{KeyFor: testKeyFor})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for _, sub := range subs {
		if err := rs.Submit(sub); err != nil && !errors.Is(err, ErrDuplicateCampaign) {
			t.Fatalf("re-submit %s: %v", sub.Spec.ID, err)
		}
	}
	drainOK(t, rs)
	st := rs.Status()
	if st.Done != tenants || st.Failed != 0 {
		t.Fatalf("soak: done=%d failed=%d, want %d/0", st.Done, st.Failed, tenants)
	}
	for i := 0; i < tenants; i += 17 {
		sub := subs[i]
		if got := decodeCampaign(t, dir, sub.Tenant, sub.Spec.ID); !bytes.Equal(got, sub.Spec.Message) {
			t.Fatalf("campaign %s decodes to %q", sub.Spec.ID, got)
		}
	}
}
