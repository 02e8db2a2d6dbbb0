package sram

import (
	"bytes"
	"context"
	"testing"

	"invisiblebits/internal/parallel"
)

// equivSpec returns a small but non-trivial spec (4 KiB) with a fixed
// seed, suitable for byte-exact cross-worker comparisons.
func equivSpec(seed uint64) Spec {
	spec := DefaultSpec()
	spec.Rows, spec.Cols = 128, 256 // 32768 cells = 4 KiB
	spec.Seed = seed
	return spec
}

// ageArray gives the array a non-uniform imprint so equivalence is not
// trivially tested on an all-noise array.
func ageArray(t *testing.T, a *Array) {
	t.Helper()
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	pattern := make([]byte, a.Bytes())
	for i := range pattern {
		pattern[i] = byte(i * 37)
	}
	cond := a.Spec().Aging.Ref
	if err := writeStress(a, pattern, cond, 4); err != nil {
		t.Fatal(err)
	}
	a.PowerOff(true)
}

// TestPowerOnEquivalence: the same seed must resolve the same power-on
// state for every worker count. This is the tentpole's core guarantee —
// parallel == serial by construction.
func TestPowerOnEquivalence(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 3, 8} {
		spec := equivSpec(7)
		spec.Workers = workers
		a, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		ageArray(t, a)
		snap, err := a.PowerOn(25)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = snap
			continue
		}
		if !bytes.Equal(snap, want) {
			t.Fatalf("workers=%d: power-on state differs from workers=1", workers)
		}
	}
}

// TestCaptureEquivalence: CaptureMajority and CaptureVotesInto must be
// bit-identical across worker counts, and successive bursts must stay in
// lockstep (the power-on counter advances identically).
func TestCaptureEquivalence(t *testing.T) {
	type result struct {
		maj   []byte
		votes []uint16
	}
	var want *result
	for _, workers := range []int{1, 2, 3, 8} {
		spec := equivSpec(11)
		spec.Workers = workers
		a, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		ageArray(t, a)
		maj, err := a.CaptureMajority(5, 25)
		if err != nil {
			t.Fatal(err)
		}
		votes, err := a.captureVotes(7, 30)
		if err != nil {
			t.Fatal(err)
		}
		got := &result{maj: maj, votes: votes}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got.maj, want.maj) {
			t.Fatalf("workers=%d: majority capture differs", workers)
		}
		for i := range want.votes {
			if got.votes[i] != want.votes[i] {
				t.Fatalf("workers=%d: vote count differs at cell %d: %d vs %d",
					workers, i, got.votes[i], want.votes[i])
			}
		}
	}
}

// TestChunkSplitEquivalence drives the pool with explicit odd and even
// chunk sizes and checks the race outcome never moves: sharding is pure
// bookkeeping.
func TestChunkSplitEquivalence(t *testing.T) {
	spec := equivSpec(13)
	ref, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ageArray(t, ref)
	refSnap, err := ref.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 3, 7, 8, 64, 1000, 4096} {
		a, err := New(equivSpec(13))
		if err != nil {
			t.Fatal(err)
		}
		ageArray(t, a)
		// Drive the race exactly as PowerOn does, but with a forced
		// chunk size (odd chunks land mid-byte-run; resolveRace is
		// byte-granular so any chunk of bytes is safe).
		if err := a.ensureBiasPlane(context.Background()); err != nil {
			t.Fatal(err)
		}
		sigma := a.noiseSigmaAt(25)
		bound := pruneBound(sigma)
		ctr := a.powerOns
		a.powerOns++
		pool := parallel.New(4)
		if err := pool.RunChunked(context.Background(), len(a.data), chunk, func(lo, hi int) {
			a.resolveRace(ctr, sigma, bound, lo, hi)
		}); err != nil {
			t.Fatal(err)
		}
		a.powered = true
		snap, err := a.Read()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, refSnap) {
			t.Fatalf("chunk=%d bytes: race outcome differs from PowerOn", chunk)
		}
	}
}

// TestCaptureCounterAdvances: a burst consumes one counter per race so
// consecutive bursts see fresh noise, and reading a saved state section
// back rewinds the noise future deterministically.
func TestCaptureCounterAdvances(t *testing.T) {
	a, err := New(equivSpec(17))
	if err != nil {
		t.Fatal(err)
	}
	ageArray(t, a)
	if got := a.PowerOnCount(); got != 1 { // ageArray powered on once
		t.Fatalf("counter after one power-on = %d, want 1", got)
	}
	snap := a.AppendState(nil)
	v1, err := a.captureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.PowerOnCount(); got != 6 {
		t.Fatalf("counter after 5-capture burst = %d, want 6", got)
	}
	v2, err := a.captureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range v1 {
		if v1[i] != v2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consecutive bursts returned identical votes — counter not advancing")
	}
	// Read the saved state back → replay the exact same noise future.
	b, err := New(equivSpec(17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadState(snap); err != nil {
		t.Fatal(err)
	}
	v1b, err := b.captureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1 {
		if v1[i] != v1b[i] {
			t.Fatalf("restored array diverged at cell %d", i)
		}
	}
}

// TestCaptureRemanence: an unpowered remanent array contributes its
// retained contents as the first capture without consuming a counter —
// the serial engine's behaviour, preserved.
func TestCaptureRemanence(t *testing.T) {
	a, err := New(equivSpec(19))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	pattern := make([]byte, a.Bytes())
	for i := range pattern {
		pattern[i] = 0xA5
	}
	if err := a.Write(pattern); err != nil {
		t.Fatal(err)
	}
	a.PowerOff(false) // rapid cycle: remanence
	before := a.PowerOnCount()
	votes, err := a.captureVotes(1, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.PowerOnCount(); got != before {
		t.Fatalf("remanent single capture consumed %d counters", got-before)
	}
	for i, v := range votes {
		bit := uint16(0)
		if pattern[i/8]&(1<<(i%8)) != 0 {
			bit = 1
		}
		if v != bit {
			t.Fatalf("cell %d: remanent capture vote %d, want %d", i, v, bit)
		}
	}
}

// TestCaptureCancellation: a cancelled burst must error out and leave
// the array unpowered so the next power-on reruns a clean race.
func TestCaptureCancellation(t *testing.T) {
	a, err := New(equivSpec(23))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.CaptureVotesInto(ctx, 5, 25, make([]uint16, a.Cells())); err == nil {
		t.Fatal("cancelled burst returned nil error")
	}
	if a.Powered() {
		t.Fatal("cancelled burst left the array powered")
	}
	if _, err := a.PowerOn(25); err != nil {
		t.Fatalf("power-on after cancelled burst: %v", err)
	}
}
