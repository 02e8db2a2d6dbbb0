package faults

import (
	"errors"
	"sync"
	"testing"
)

func TestKillSwitchFiresAtArmedHitAndStaysDead(t *testing.T) {
	k := NewKillSwitch(2)
	if err := k.Hit("a"); err != nil {
		t.Fatalf("hit 0: %v", err)
	}
	if err := k.Hit("b"); err != nil {
		t.Fatalf("hit 1: %v", err)
	}
	if err := k.Hit("c"); !errors.Is(err, ErrKilled) {
		t.Fatalf("hit 2 = %v, want ErrKilled", err)
	}
	// Dead processes stay dead: every later hit also fails.
	if err := k.Hit("d"); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-fire hit = %v, want ErrKilled", err)
	}
	if !k.Fired() || k.FiredAt() != "c" {
		t.Fatalf("fired=%v at %q, want true at c", k.Fired(), k.FiredAt())
	}
}

func TestKillSwitchAtFiresAtNamedPointAndStaysDead(t *testing.T) {
	k := NewKillSwitchAt("journal/slice")
	for _, p := range []string{"journal/tenant", "journal/submit", "image/a"} {
		if err := k.Hit(p); err != nil {
			t.Fatalf("hit %s: %v", p, err)
		}
	}
	if err := k.Hit("journal/slice"); !errors.Is(err, ErrKilled) {
		t.Fatalf("hit journal/slice = %v, want ErrKilled", err)
	}
	if err := k.Hit("journal/pass"); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-fire hit = %v, want ErrKilled", err)
	}
	if !k.Fired() || k.FiredAt() != "journal/slice" || k.Hits() != 4 {
		t.Fatalf("fired=%v at %q after %d hits, want true at journal/slice after 4", k.Fired(), k.FiredAt(), k.Hits())
	}
}

func TestKillSwitchNegativeNeverFires(t *testing.T) {
	k := NewKillSwitch(-1)
	for i := 0; i < 10; i++ {
		if err := k.Hit("p"); err != nil {
			t.Fatalf("hit %d: %v", i, err)
		}
	}
	if k.Fired() {
		t.Fatal("negative arm fired")
	}
	if k.Hits() != 10 {
		t.Fatalf("hits = %d, want 10", k.Hits())
	}
}

func TestErrKilledIsNeitherTransientNorPermanent(t *testing.T) {
	if IsTransient(ErrKilled) || IsPermanent(ErrKilled) {
		t.Fatal("ErrKilled must not classify as a device fault")
	}
}

func TestKillSwitchConcurrentHitsFireExactlyOnceFresh(t *testing.T) {
	k := NewKillSwitch(5)
	var wg sync.WaitGroup
	errs := make([]error, 20)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = k.Hit("concurrent")
		}(i)
	}
	wg.Wait()
	killed := 0
	for _, err := range errs {
		if errors.Is(err, ErrKilled) {
			killed++
		}
	}
	// Hits 0..4 pass, hit 5 fires, hits 6..19 observe the dead switch.
	if killed != 15 {
		t.Fatalf("killed %d of 20 hits, want 15", killed)
	}
}
