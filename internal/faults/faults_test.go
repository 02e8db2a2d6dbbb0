package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"invisiblebits/internal/analog"
)

func TestClassification(t *testing.T) {
	if !IsTransient(ErrLinkDropped) || IsPermanent(ErrLinkDropped) {
		t.Error("ErrLinkDropped misclassified")
	}
	if !IsPermanent(ErrDeviceDead) || IsTransient(ErrDeviceDead) {
		t.Error("ErrDeviceDead misclassified")
	}
	// Classification must survive wrapping.
	wrapped := fmt.Errorf("rig: flash failed: %w", ErrLinkDropped)
	if !errors.Is(wrapped, ErrLinkDropped) || !IsTransient(wrapped) {
		t.Error("wrapping lost classification")
	}
	// Ordinary errors are neither.
	plain := errors.New("plain")
	if IsTransient(plain) || IsPermanent(plain) {
		t.Error("plain error classified as a fault")
	}
}

func TestSeededInjectorDeterminism(t *testing.T) {
	p := Profile{
		Seed:            42,
		LinkDropRate:    0.3,
		BrownoutRate:    0.5,
		BrownoutSagV:    0.4,
		ExcursionRate:   0.5,
		ExcursionDeltaC: 12,
		StuckFrac:       0.01,
		WeakFrac:        0.01,
	}
	run := func() ([]bool, []analog.Conditions, []byte) {
		inj := New(p, "det-serial")
		drops := make([]bool, 40)
		for i := range drops {
			drops[i] = inj.OpError(OpCapture, float64(i)*0.1) != nil
		}
		conds := make([]analog.Conditions, 10)
		for i := range conds {
			conds[i], _ = inj.PerturbConditions(analog.Conditions{VoltageV: 3.3, TempC: 85}, float64(i))
		}
		snap := make([]byte, 64)
		inj.CorruptSnapshot(snap, 1)
		return drops, conds, snap
	}
	d1, c1, s1 := run()
	d2, c2, s2 := run()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("link-drop sequence diverged at %d", i)
		}
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("perturbation sequence diverged at %d: %v vs %v", i, c1[i], c2[i])
		}
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("snapshot corruption diverged at byte %d", i)
		}
	}
	// A different serial must see a different campaign.
	other := New(p, "other-serial")
	diverged := false
	for i := 0; i < 40; i++ {
		if (other.OpError(OpCapture, float64(i)*0.1) != nil) != d1[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("two serials replay the identical campaign")
	}
}

func TestZeroProfileInjectsNothing(t *testing.T) {
	inj := New(Profile{}, "clean")
	for i := 0; i < 100; i++ {
		if err := inj.OpError(OpLoadProgram, float64(i)); err != nil {
			t.Fatalf("zero profile injected %v", err)
		}
	}
	c := analog.Conditions{VoltageV: 3.3, TempC: 85}
	got, note := inj.PerturbConditions(c, 5)
	if got != c || note != "" {
		t.Fatalf("zero profile perturbed conditions: %v (%q)", got, note)
	}
	snap := []byte{0xA5, 0x5A}
	inj.CorruptSnapshot(snap, 0)
	if snap[0] != 0xA5 || snap[1] != 0x5A {
		t.Fatal("zero profile corrupted snapshot")
	}
	votes := []uint16{0, 5, 3}
	inj.CorruptVotes(votes, 5, 0)
	if votes[1] != 5 || votes[2] != 3 {
		t.Fatal("zero profile corrupted votes")
	}
}

func TestDeviceDeathIsPermanentAndSticky(t *testing.T) {
	inj := New(Profile{FailAtHours: 2}, "doomed")
	if err := inj.OpError(OpStress, 1.9); err != nil {
		t.Fatalf("died early: %v", err)
	}
	err := inj.OpError(OpStress, 2.1)
	if !IsPermanent(err) {
		t.Fatalf("death not permanent: %v", err)
	}
	// Death is sticky even for queries with an earlier clock (the device
	// does not resurrect).
	if err := inj.OpError(OpCapture, 0.5); !IsPermanent(err) {
		t.Errorf("resurrected: %v", err)
	}
}

func TestStuckCellsAreStableAcrossCaptures(t *testing.T) {
	inj := New(Profile{StuckFrac: 0.05}, "stuck")
	a := make([]byte, 128)
	b := make([]byte, 128)
	for i := range b {
		b[i] = 0xFF
	}
	inj.CorruptSnapshot(a, 0)
	inj.CorruptSnapshot(b, 1)
	// Stuck cells force the same value regardless of underlying data or
	// clock; a starts all-0 and b all-1, so cells where a has a 1 or b
	// has a 0 are stuck — and they must agree between the two captures.
	stuck := 0
	for i := 0; i < len(a)*8; i++ {
		abit := a[i/8]&(1<<(i%8)) != 0
		bbit := b[i/8]&(1<<(i%8)) != 0
		if abit != bbit {
			continue // cell untouched (a=0, b=1)
		}
		stuck++
	}
	if stuck == 0 {
		t.Fatal("no stuck cells injected at 5%")
	}
	if frac := float64(stuck) / float64(len(a)*8); frac > 0.10 {
		t.Fatalf("stuck fraction %v far above profile's 0.05", frac)
	}
}

func TestWeakCellVotesAreNoisy(t *testing.T) {
	inj := New(Profile{WeakFrac: 0.2}, "weak")
	votes := make([]uint16, 1024)
	inj.CorruptVotes(votes, 5, 0)
	indecisive := 0
	for _, v := range votes {
		if v != 0 && v != 5 {
			indecisive++
		}
	}
	if indecisive == 0 {
		t.Fatal("weak cells produced no indecisive votes")
	}
}

type countingClock struct{ hours float64 }

func (c *countingClock) AdvanceClock(h float64) { c.hours += h }

func TestRetryChargesSimulatedClock(t *testing.T) {
	clock := &countingClock{}
	calls := 0
	err := Retry(context.Background(), clock, 3, 0.25, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("op: %w", ErrLinkDropped)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	// Two backoffs: 0.25 + 0.50.
	if clock.hours != 0.75 {
		t.Fatalf("backoff charged %vh, want 0.75h", clock.hours)
	}
}

func TestRetryStopsOnPermanentAndBudget(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), nil, 5, 0.1, func() error {
		calls++
		return fmt.Errorf("op: %w", ErrDeviceDead)
	})
	if !IsPermanent(err) || calls != 1 {
		t.Fatalf("permanent fault retried: calls=%d err=%v", calls, err)
	}
	calls = 0
	err = Retry(context.Background(), nil, 2, 0.1, func() error {
		calls++
		return fmt.Errorf("op: %w", ErrLinkDropped)
	})
	if !IsTransient(err) || calls != 3 {
		t.Fatalf("budget not honoured: calls=%d err=%v", calls, err)
	}
}

func TestRetryHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, nil, 3, 0.1, func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("cancelled ctx ran op: calls=%d err=%v", calls, err)
	}
}
