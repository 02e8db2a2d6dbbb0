package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"invisiblebits/internal/faults"
)

// assertLiveIsReplay requires the scheduler's state to equal
// ReplaySalvage of its journal re-read from disk. Call it only while no
// pass runs and no Submit is in flight.
func assertLiveIsReplay(t *testing.T, s *Scheduler, label string) {
	t.Helper()
	entries, sal, err := ReadJournalSalvage(s.cfg.FS, filepath.Join(s.dir, JournalFile))
	if err != nil {
		t.Fatalf("%s: read journal: %v", label, err)
	}
	want, used, rerr := ReplaySalvage(entries)
	if sal.DroppedBytes > 0 || used != len(entries) {
		t.Fatalf("%s: journal replays %d of %d records: %v %s", label, used, len(entries), rerr, sal.Reason)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !reflect.DeepEqual(s.st, want) {
		t.Fatalf("%s: live state is not the journal's replay: %s", label, stateDiff(s.st, want))
	}
}

// stateDiff names the first line where two states' JSON differ.
func stateDiff(live, replay *State) string {
	l, _ := json.MarshalIndent(live, "", " ")
	r, _ := json.MarshalIndent(replay, "", " ")
	ll, rl := strings.Split(string(l), "\n"), strings.Split(string(r), "\n")
	for i := 0; i < len(ll) && i < len(rl); i++ {
		if ll[i] != rl[i] {
			return fmt.Sprintf("line %d: live %s, replay %s", i+1, strings.TrimSpace(ll[i]), strings.TrimSpace(rl[i]))
		}
	}
	return fmt.Sprintf("live JSON has %d lines, replay %d", len(ll), len(rl))
}

// stepDrain drains a scheduler whose loop never started: it runs the
// loop's own pass code on the test goroutine and calls check at every
// pass boundary, then closes the journal as the loop would.
func stepDrain(t *testing.T, s *Scheduler, check func(pass int)) {
	t.Helper()
	defer s.j.Close()
	s.mu.Lock()
	err := s.drainLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	for pass := 0; ; pass++ {
		s.mu.Lock()
		plan := s.nextPassLocked()
		s.mu.Unlock()
		if plan == nil {
			break
		}
		s.runPass(plan)
		check(pass)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scheduler died while draining: %v", err)
	}
}

// waitStopped waits for a scheduler's loop to exit, so its state is
// quiescent.
func waitStopped(t *testing.T, s *Scheduler) {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("scheduling loop did not exit")
	}
}

// flakyInjector drops the debugger link once, on the first stress
// operation at or past atHours: a transient fault, which rewinds the
// slot to its last checkpoint.
type flakyInjector struct {
	*faults.SeededInjector
	atHours float64
	fired   *atomic.Bool
}

func (f flakyInjector) OpError(op faults.Op, clockHours float64) error {
	if op == faults.OpStress && clockHours >= f.atHours && f.fired.CompareAndSwap(false, true) {
		return faults.ErrLinkDropped
	}
	return nil
}

// Inert must report false or the rig would never consult OpError.
func (flakyInjector) Inert() bool { return false }

// TestLiveStateIsJournalReplay holds the scheduler's one state machine
// to its contract: at every quiescent point the live state is exactly
// what replaying the journal from disk rebuilds. The points are every
// pass boundary of a run with a reroute, a failed campaign, a transient
// rewind and a ckptbad fallback; both sides of every kill → resume step
// of a crash matrix and of a 100-tenant soak; and every drained end.
func TestLiveStateIsJournalReplay(t *testing.T) {
	t.Run("faults", func(t *testing.T) {
		dir := t.TempDir()
		var flaked atomic.Bool
		cfg := Config{
			KeyFor: testKeyFor,
			InjectorFor: func(serial string) faults.Injector {
				switch {
				case strings.HasPrefix(serial, "dead"):
					return faults.New(faults.Profile{Seed: 11, FailAtHours: 1}, serial)
				case serial == "flaky-0":
					return flakyInjector{faults.New(faults.Profile{}, serial), 12.85, &flaked}
				}
				return nil
			},
		}
		subs := []Submission{
			miniSub("alice", "lv-ok", []string{"ok-0"}, 7.5),
			miniSub("bob", "lv-reroute", []string{"dead-0"}, 7.5, "spare-0", "spare-1"),
			miniSub("carol", "lv-doomed", []string{"dead-1"}, 7.5),
			// Checkpoints at 5 h and 10 h of soak; the link drops in the
			// slice after 12.5 h (the rig clock runs 0.4 h ahead of the
			// soak), with the stream's cursor past the newest checkpoint.
			miniSub("dave", "lv-flaky", []string{"flaky-0"}, 15),
		}
		s := newAdmitted(t, dir, cfg, subs)
		assertLiveIsReplay(t, s, "admitted")
		rotted := false
		stepDrain(t, s, func(pass int) {
			assertLiveIsReplay(t, s, fmt.Sprintf("pass %d", pass))
			if flaked.Load() && !rotted {
				// The flaky slot rewound to its 10 h checkpoint. Rot that
				// image: the next pass strikes it and falls back to 5 h.
				rotted = true
				s.mu.Lock()
				rep := *s.camps["lv-flaky"].slots[0].rep
				s.mu.Unlock()
				if ck := rep.newest(); rep.Applied != 12.5 || ck.Applied != 10 {
					t.Fatalf("transient struck at cursor %.1f h, checkpoint %.1f h; want 12.5 and 10", rep.Applied, ck.Applied)
				}
				img := filepath.Join(dir, CampaignsDir, "lv-flaky", "slot-0-ckpt-10.0000h.img")
				b, err := os.ReadFile(img)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x5a
				if err := os.WriteFile(img, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
		assertLiveIsReplay(t, s, "drained")

		entries := readJournal(t, filepath.Join(dir, JournalFile))
		kinds := map[string]int{}
		for _, e := range entries {
			kinds[e.Type]++
		}
		if !flaked.Load() || kinds[entryReroute] != 1 || kinds[entryFailed] != 1 || kinds[entryCkptBad] != 1 || kinds[entryDone] != 3 {
			t.Fatalf("scenario missed an event: transient fault %v, records %v", flaked.Load(), kinds)
		}
		if got := decodeCampaign(t, dir, "dave", "lv-flaky"); !bytes.Equal(got, subs[3].Spec.Message) {
			t.Fatalf("campaign lv-flaky decodes to %q", got)
		}
	})

	t.Run("crash-matrix", func(t *testing.T) {
		base := t.TempDir()
		subs := []Submission{
			miniSub("alice", "lm-a", []string{"lma-0"}, 7.5),
			miniSub("bob", "lm-b", []string{"lmb-0"}, 7.5),
		}
		cfg := Config{KeyFor: testKeyFor}
		points := 0
		for k := 0; ; k++ {
			dir := filepath.Join(base, fmt.Sprintf("k%03d", k))
			ks := faults.NewKillSwitch(k)
			killCfg := cfg
			killCfg.Hook = ks.Hook()
			s, err := New(dir, killCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				s.Submit(sub) //nolint:errcheck // a fired kill point rejects later submits
			}
			s.Drain(context.Background()) //nolint:errcheck // dies at the kill point
			waitStopped(t, s)
			assertLiveIsReplay(t, s, fmt.Sprintf("kill point %d, killed", k))
			if !ks.Fired() {
				points = k
				break
			}
			rs, err := resume(dir, cfg, false)
			if err != nil {
				t.Fatalf("resume after kill point %d: %v", k, err)
			}
			assertLiveIsReplay(t, rs, fmt.Sprintf("kill point %d, resumed", k))
			for _, sub := range subs {
				if err := rs.Submit(sub); err != nil && !errors.Is(err, ErrDuplicateCampaign) {
					t.Fatalf("re-submit %s after kill point %d: %v", sub.Spec.ID, k, err)
				}
			}
			stepDrain(t, rs, func(pass int) {
				assertLiveIsReplay(t, rs, fmt.Sprintf("kill point %d, pass %d", k, pass))
			})
			assertLiveIsReplay(t, rs, fmt.Sprintf("kill point %d, drained", k))
			if st := rs.Status(); st.Done != len(subs) {
				t.Fatalf("kill point %d: %d of %d campaigns done", k, st.Done, len(subs))
			}
		}
		if points < 20 {
			t.Fatalf("crash matrix covered only %d kill points", points)
		}
	})

	t.Run("soak", func(t *testing.T) {
		if testing.Short() {
			t.Skip("soak skipped in -short")
		}
		dir := t.TempDir()
		const tenants = 100
		subs := make([]Submission, tenants)
		for i := range subs {
			subs[i] = miniSub(fmt.Sprintf("tenant-%03d", i), fmt.Sprintf("soak-%03d", i),
				[]string{fmt.Sprintf("sk%03d-0", i)}, 7.5)
		}
		ks := faults.NewKillSwitch(tenants*3 + 57)
		s, err := New(dir, Config{KeyFor: testKeyFor, Hook: ks.Hook()})
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			s.Submit(sub) //nolint:errcheck // the kill may land during admission
		}
		s.Drain(context.Background()) //nolint:errcheck // dies at the kill point
		if !ks.Fired() {
			t.Fatal("kill switch never fired")
		}
		waitStopped(t, s)
		assertLiveIsReplay(t, s, "killed")

		rs, err := resume(dir, Config{KeyFor: testKeyFor}, false)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		assertLiveIsReplay(t, rs, "resumed")
		for _, sub := range subs {
			if err := rs.Submit(sub); err != nil && !errors.Is(err, ErrDuplicateCampaign) {
				t.Fatalf("re-submit %s: %v", sub.Spec.ID, err)
			}
		}
		stepDrain(t, rs, func(pass int) {
			assertLiveIsReplay(t, rs, fmt.Sprintf("pass %d", pass))
		})
		assertLiveIsReplay(t, rs, "drained")
		if st := rs.Status(); st.Done != tenants {
			t.Fatalf("soak: %d of %d campaigns done", st.Done, tenants)
		}
	})
}

// TestDivergedRecordStopsScheduler forces the live state to disagree
// with the journal: replay rejects a record the live path has just
// appended. The incarnation must stop, as on a journal I/O failure. The
// disk never saw the disagreement, so a resume finishes every campaign.
func TestDivergedRecordStopsScheduler(t *testing.T) {
	subs := []Submission{
		miniSub("alice", "dv-a", []string{"dva-0"}, 7.5),
		miniSub("bob", "dv-b", []string{"dvb-0"}, 7.5),
	}
	resumeAndFinish := func(t *testing.T, dir string) {
		t.Helper()
		rs, err := Resume(dir, Config{KeyFor: testKeyFor})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if sal := rs.Salvage(); sal.Degraded() {
			t.Fatalf("resume had to salvage a journal that was never damaged: %+v", sal)
		}
		for _, sub := range subs {
			if err := rs.Submit(sub); err != nil && !errors.Is(err, ErrDuplicateCampaign) {
				t.Fatalf("re-submit %s: %v", sub.Spec.ID, err)
			}
		}
		drainOK(t, rs)
		for _, sub := range subs {
			if got := decodeCampaign(t, dir, sub.Tenant, sub.Spec.ID); !bytes.Equal(got, sub.Spec.Message) {
				t.Fatalf("campaign %s decodes to %q", sub.Spec.ID, got)
			}
		}
	}

	t.Run("submit", func(t *testing.T) {
		// A record applied under the scheduler lock: the hook marks the
		// state draining after Submit checked it and before the submit
		// record is applied.
		dir := t.TempDir()
		var s *Scheduler
		submits := 0
		cfg := Config{KeyFor: testKeyFor, Hook: func(point string) error {
			if point == "journal/"+entrySubmit {
				if submits++; submits == 2 {
					s.st.Draining = true
				}
			}
			return nil
		}}
		var err error
		if s, err = New(dir, cfg); err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(subs[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(subs[1]); !errors.Is(err, errDiverged) {
			t.Fatalf("submit whose record replay rejects: %v, want errDiverged", err)
		}
		waitStopped(t, s)
		if !errors.Is(s.Err(), errDiverged) {
			t.Fatalf("scheduler error %v, want errDiverged", s.Err())
		}
		if err := s.Submit(miniSub("carol", "dv-c", []string{"dvc-0"}, 7.5)); !errors.Is(err, ErrSchedulerDown) {
			t.Fatalf("submit after divergence: %v, want ErrSchedulerDown", err)
		}
		resumeAndFinish(t, dir)
	})

	t.Run("slice", func(t *testing.T) {
		// A record a slot worker applies: the hook moves the slot's
		// replay past any slice before the first slice record lands.
		dir := t.TempDir()
		var rep *SlotReplay
		cfg := Config{KeyFor: testKeyFor, Hook: func(point string) error {
			if point == "journal/"+entrySlice && rep != nil {
				rep.Applied = math.MaxFloat64
			}
			return nil
		}}
		s := newAdmitted(t, dir, cfg, subs[1:])
		rep = s.camps["dv-b"].slots[0].rep
		go s.loop()
		if err := s.Drain(context.Background()); !errors.Is(err, errDiverged) {
			t.Fatalf("drain over a slice record replay rejects: %v, want errDiverged", err)
		}
		if st := s.Status(); st.Done != 0 || st.Passes != 1 {
			t.Fatalf("the scheduler kept going after the divergence: %+v", st)
		}
		resumeAndFinish(t, dir)
	})
}

// TestOversizeSubmitLeavesNoTrace: a message too large for its stripe
// is rejected before anything is journaled, so the campaign ID stays
// free and the journal replays whole.
func TestOversizeSubmitLeavesNoTrace(t *testing.T) {
	s := newIdleScheduler(t, Config{KeyFor: testKeyFor})
	big := miniSub("alice", "big", []string{"bg-0"}, 7.5)
	big.Spec.Message = bytes.Repeat([]byte("x"), 4096)
	if err := s.Submit(big); err == nil {
		t.Fatal("a message larger than its stripe was admitted")
	}
	if n := len(readJournal(t, filepath.Join(s.dir, JournalFile))); n != 0 {
		t.Fatalf("the rejected submission journaled %d records", n)
	}
	if err := s.Submit(miniSub("alice", "big", []string{"bg-0"}, 7.5)); err != nil {
		t.Fatalf("resubmit under the same ID: %v", err)
	}
	assertLiveIsReplay(t, s, "resubmitted")
}
