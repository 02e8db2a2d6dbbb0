package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/rig"
)

// TestBreakerStateMachine walks one breaker through every transition on
// the simulated clock: closed → open (threshold), open → half-open
// (backoff elapsed, single probe), probe failure → open with doubled
// backoff, capped at DefaultMaxBackoffHours, probe success → closed
// with counters reset, and repeated trips → quarantine.
func TestBreakerStateMachine(t *testing.T) {
	cfg := BreakerConfig{
		FailureThreshold:     2,
		BaseBackoffHours:     12,
		QuarantineAfterTrips: 3,
	}
	b := newBreaker(cfg)

	type step struct {
		name      string
		allowAt   float64 // simulated clock for Allow; -1 skips Allow
		wantAllow error
		record    error // outcome fed to Record after a successful Allow
		wantState BreakerState
	}
	steps := []step{
		{"first failure stays closed", 0, nil, faults.ErrLinkDropped, BreakerClosed},
		{"second failure trips open", 0.5, nil, faults.ErrLinkDropped, BreakerOpen},
		{"rejected during backoff", 2, ErrBreakerOpen, nil, BreakerOpen},
		{"probe failure reopens with doubled backoff", 13, nil, faults.ErrLinkDropped, BreakerOpen},
		// Backoff is now min(12*2, 16) = 16h from the trip at clock 13.
		{"rejected inside capped backoff", 28, ErrBreakerOpen, nil, BreakerOpen},
		{"probe success closes", 29.5, nil, nil, BreakerClosed},
		{"post-recovery failure stays closed", 30, nil, faults.ErrLinkDropped, BreakerClosed},
	}
	for _, s := range steps {
		err := b.Allow(s.allowAt)
		if !errors.Is(err, s.wantAllow) {
			t.Fatalf("%s: Allow = %v, want %v", s.name, err, s.wantAllow)
		}
		if err == nil {
			b.Record(s.record, s.allowAt)
		}
		if got := b.State(); got != s.wantState {
			t.Fatalf("%s: state %s, want %s", s.name, got, s.wantState)
		}
	}

	// The success above reset the trip counter: keep failing (waiting
	// out each backoff) until the trip ladder lands in quarantine.
	clock := 40.0
	for i := 0; b.State() != BreakerQuarantined; i++ {
		if i > 20 {
			t.Fatalf("no quarantine after %d failures, state %s", i, b.State())
		}
		if err := b.Allow(clock); err == nil {
			b.Record(faults.ErrLinkDropped, clock)
		}
		clock += DefaultMaxBackoffHours + 1 // let any backoff elapse
	}
	if err := b.Allow(clock); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined Allow = %v, want ErrQuarantined", err)
	}
}

// TestBreakerPermanentFaultQuarantinesImmediately pins the shortcut: a
// permanent fault skips the trip ladder entirely.
func TestBreakerPermanentFaultQuarantinesImmediately(t *testing.T) {
	b := newBreaker(BreakerConfig{})
	if err := b.Allow(0); err != nil {
		t.Fatal(err)
	}
	b.Record(faults.ErrDeviceDead, 0)
	if got := b.State(); got != BreakerQuarantined {
		t.Fatalf("state %s after permanent fault, want quarantined", got)
	}
}

// TestBreakerIgnoresContextCancellation: the caller giving up is not
// evidence against the device.
func TestBreakerIgnoresContextCancellation(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 1})
	for i := 0; i < 5; i++ {
		if err := b.Allow(float64(i)); err != nil {
			t.Fatal(err)
		}
		b.Record(context.Canceled, float64(i))
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %s after cancellations, want closed", got)
	}
}

// TestBreakerHalfOpenSingleProbe: while a probe is in flight, concurrent
// callers are rejected instead of stampeding the recovering device.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 1, BaseBackoffHours: 1})
	if err := b.Allow(0); err != nil {
		t.Fatal(err)
	}
	b.Record(faults.ErrLinkDropped, 0) // trips open
	if err := b.Allow(2); err != nil { // backoff elapsed → half-open probe
		t.Fatalf("probe rejected: %v", err)
	}
	if err := b.Allow(2); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe = %v, want ErrBreakerOpen", err)
	}
	b.Record(nil, 2)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %s after probe success, want closed", got)
	}
}

// TestBreakerSetQuarantineAndStats drives two devices through a set and
// checks the aggregate views.
func TestBreakerSetQuarantineAndStats(t *testing.T) {
	set := NewBreakerSet(BreakerConfig{})
	set.For("alive").Record(nil, 0)
	b := set.For("doomed")
	if err := b.Allow(0); err != nil {
		t.Fatal(err)
	}
	b.Record(faults.ErrDeviceDead, 0)
	if err := set.allow("doomed", 1); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("set allow on quarantined device = %v", err)
	}

	if q := set.Quarantined(); len(q) != 1 || q[0] != "doomed" {
		t.Fatalf("Quarantined = %v, want [doomed]", q)
	}
	stats := set.Stats()
	if len(stats) != 2 || stats[0].DeviceID != "alive" || stats[1].DeviceID != "doomed" {
		t.Fatalf("Stats = %+v", stats)
	}
	if stats[1].State != BreakerQuarantined || stats[1].PermanentFaults != 1 || stats[1].SkippedOps != 1 {
		t.Fatalf("doomed stats = %+v", stats[1])
	}

	// A nil set is a no-op gate everywhere.
	var nilSet *BreakerSet
	if err := nilSet.allow("x", 0); err != nil {
		t.Fatal("nil set rejected an operation")
	}
	nilSet.record("x", faults.ErrDeviceDead, 0)
	if nilSet.Quarantined() != nil || nilSet.Stats() != nil {
		t.Fatal("nil set reported state")
	}
}

// TestBreakerQuarantineSavesRetries is the acceptance scenario: a
// carrier with a hopeless link burns a full in-rig retry ladder on every
// sweep; with breakers mounted the fleet stops consulting it after the
// threshold, and the fault counters prove the saved attempts.
func TestBreakerQuarantineSavesRetries(t *testing.T) {
	const sweeps = 6
	var flakyID string
	run := func(breakers *BreakerSet) (flakyFaults int, quarantined []string) {
		flaky := newRigWith(t, "hopeless", 4<<10, faults.Profile{Seed: 9, LinkDropRate: 1})
		flakyID = flaky.Device().DeviceID()
		healthy := newRigWith(t, "steady", 4<<10, faults.Profile{})
		rigs := []*rig.Rig{healthy, flaky}
		var lastQuarantine []string
		for i := 0; i < sweeps; i++ {
			rep, err := HealthSweep(context.Background(), rigs, HealthSweepOptions{Breakers: breakers})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Carriers[1].Err == nil {
				t.Fatal("hopeless link probed successfully")
			}
			if rep.Carriers[0].Err != nil {
				t.Fatalf("healthy carrier failed: %v", rep.Carriers[0].Err)
			}
			lastQuarantine = rep.Quarantined
		}
		tf, _ := flaky.FaultCounts()
		return tf, lastQuarantine
	}

	without, q := run(nil)
	if q != nil {
		t.Fatalf("breaker-free sweep reported quarantine %v", q)
	}
	set := NewBreakerSet(BreakerConfig{FailureThreshold: 2, QuarantineAfterTrips: 1})
	with, q := run(set)
	if len(q) != 1 || q[0] != flakyID {
		t.Fatalf("Quarantined = %v, want [%s]", q, flakyID)
	}
	if with >= without {
		t.Fatalf("breakers saved nothing: %d faults with, %d without", with, without)
	}
	var skipped int
	for _, s := range set.Stats() {
		if s.DeviceID == flakyID {
			skipped = s.SkippedOps
		}
	}
	if skipped < sweeps-2 {
		t.Fatalf("quarantine skipped only %d ops, want ≥ %d", skipped, sweeps-2)
	}
}

// TestBreakerHalfOpenSingleProbeConcurrent pins the half-open
// admission contract under real concurrency: many goroutines hammering
// an expired-backoff breaker at once must see exactly one Allow succeed
// — the single probe — and everyone else rejected with ErrBreakerOpen.
// Run under -race, this also proves the open→half-open transition and
// the probing flag are properly serialized.
func TestBreakerHalfOpenSingleProbeConcurrent(t *testing.T) {
	for round := 0; round < 25; round++ {
		cfg := BreakerConfig{FailureThreshold: 1, BaseBackoffHours: 1}
		b := newBreaker(cfg)
		b.Allow(0)
		b.Record(faults.ErrLinkDropped, 0)
		if got := b.State(); got != BreakerOpen {
			t.Fatalf("round %d: state %s after trip, want open", round, got)
		}

		const goroutines = 8
		results := make([]error, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				// Clock 2h: past the 1h backoff, so the breaker is ripe
				// for its half-open probe — but only one of us gets it.
				results[g] = b.Allow(2)
			}(g)
		}
		close(start)
		wg.Wait()

		admitted := 0
		for g, err := range results {
			switch {
			case err == nil:
				admitted++
			case !errors.Is(err, ErrBreakerOpen):
				t.Fatalf("round %d: goroutine %d rejected with %v, want ErrBreakerOpen", round, g, err)
			}
		}
		if admitted != 1 {
			t.Fatalf("round %d: %d probes admitted through a half-open breaker, want exactly 1", round, admitted)
		}
		if got := b.State(); got != BreakerHalfOpen {
			t.Fatalf("round %d: state %s, want half-open with probe in flight", round, got)
		}

		// The probe's outcome releases the slot: a success closes the
		// breaker and traffic flows again for everyone.
		b.Record(nil, 2)
		if err := b.Allow(2.5); err != nil {
			t.Fatalf("round %d: Allow after probe success: %v", round, err)
		}
	}
}
