package sram

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"invisiblebits/internal/analog"
)

// kernelTestSpec builds a small spec with the given cell count (must be
// a multiple of 8).
func kernelTestSpec(cells int, seed uint64) Spec {
	spec := DefaultSpec()
	spec.Rows = 1
	spec.Cols = cells
	spec.Seed = seed
	return spec
}

// captureVotes is the allocating form of CaptureVotesInto, shaped like
// the reference engines the tests hold it to.
func (a *Array) captureVotes(captures int, tempC float64) ([]uint16, error) {
	votes := make([]uint16, a.n)
	if err := a.CaptureVotesInto(context.Background(), captures, tempC, votes); err != nil {
		return nil, err
	}
	return votes, nil
}

// imprintSome stresses a checkerboard pattern so part of the array goes
// deterministic: the kernel then exercises the det-plane fill, the
// packed residue and the scatter paths together.
func imprintSome(t testing.TB, a *Array, hours float64) {
	t.Helper()
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	pat := make([]byte, a.Bytes())
	for i := range pat {
		pat[i] = 0xA5
	}
	if err := writeStress(a, pat, analog.Conditions{VoltageV: 3.6, TempC: 105}, hours); err != nil {
		t.Fatal(err)
	}
	a.PowerOff(true)
}

// TestCaptureCountBoundary: 65535 captures work and count correctly at
// the counter's ceiling; 65536 is rejected with the typed error before
// any race runs (the pre-kernel engine silently truncated the counts
// instead). A 16-cell array keeps the boundary burst fast.
func TestCaptureCountBoundary(t *testing.T) {
	a, err := New(kernelTestSpec(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	votes, err := a.captureVotes(MaxCaptures, 25)
	if err != nil {
		t.Fatalf("CaptureVotesInto(%d): %v", MaxCaptures, err)
	}
	if got := a.PowerOnCount(); got != MaxCaptures {
		t.Fatalf("PowerOnCount = %d, want %d", got, MaxCaptures)
	}
	var sawMid bool
	for i, v := range votes {
		if int(v) > MaxCaptures {
			t.Fatalf("cell %d: %d votes out of %d captures", i, v, MaxCaptures)
		}
		if v != 0 && int(v) != MaxCaptures {
			sawMid = true
		}
	}
	if !sawMid {
		t.Fatal("no noisy cell recorded an intermediate vote count; boundary burst untested")
	}

	before := a.PowerOnCount()
	_, err = a.captureVotes(MaxCaptures+1, 25)
	var cce *CaptureCountError
	if !errors.As(err, &cce) {
		t.Fatalf("CaptureVotesInto(%d) error = %v, want *CaptureCountError", MaxCaptures+1, err)
	}
	if cce.Captures != MaxCaptures+1 {
		t.Fatalf("CaptureCountError.Captures = %d, want %d", cce.Captures, MaxCaptures+1)
	}
	if a.PowerOnCount() != before {
		t.Fatal("rejected burst consumed power-on counters")
	}
	// Every capture entry point validates the same bound.
	if _, err := a.BiasMap(MaxCaptures+1, 25); !errors.As(err, &cce) {
		t.Fatalf("BiasMap error = %v, want *CaptureCountError", err)
	}
	if _, err := a.CaptureMajority(MaxCaptures+2, 25); err == nil {
		t.Fatal("CaptureMajority accepted an even, over-limit count")
	}
	if _, err := a.CaptureVotesScalar(MaxCaptures+1, 25); !errors.As(err, &cce) {
		t.Fatalf("CaptureVotesScalar error = %v, want *CaptureCountError", err)
	}
}

// TestSlicedMajorityMatchesScalarThreshold: for every odd capture count
// 1..25 and cell counts straddling word boundaries (63, 64, 65), the
// kernel's majority (derived from bit-sliced counters) must equal the
// scalar threshold rule applied to the reference engine's counts.
func TestSlicedMajorityMatchesScalarThreshold(t *testing.T) {
	for _, cells := range []int{64, 72} { // 64 = exact word, 72 = tail word
		for captures := 1; captures <= 25; captures += 2 {
			spec := kernelTestSpec(cells, uint64(100+cells+captures))
			ak, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			ar, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			imprintSome(t, ak, 3)
			imprintSome(t, ar, 3)
			maj, err := ak.CaptureMajority(captures, 25)
			if err != nil {
				t.Fatal(err)
			}
			refVotes, err := ar.CaptureVotesReference(captures, 25)
			if err != nil {
				t.Fatal(err)
			}
			threshold := uint16(captures/2) + 1
			for i := 0; i < cells; i++ {
				want := refVotes[i] >= threshold
				got := maj[i/8]&(1<<(i%8)) != 0
				if got != want {
					t.Fatalf("cells=%d captures=%d cell %d: sliced majority %v, scalar threshold %v (votes %d)",
						cells, captures, i, got, want, refVotes[i])
				}
			}
		}
	}
	// Sub-word arrays exercise the global tail mask (n not a multiple
	// of 64): 63 isn't byte-aligned, so use 56 = 7 bytes < one word.
	spec := kernelTestSpec(56, 999)
	ak, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	maj, err := ak.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	refVotes, err := ar.CaptureVotesReference(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 56; i++ {
		if got, want := maj[i/8]&(1<<(i%8)) != 0, refVotes[i] >= 3; got != want {
			t.Fatalf("tail array cell %d: majority %v, want %v", i, got, want)
		}
	}
}

// TestKernelEquivalence: kernel, pre-kernel scalar engine and serial
// reference must produce identical votes, data planes and counter
// consumption — with and without remanence, from identically aged
// states, with the kernel at one worker and at GOMAXPROCS. Two shapes: a
// small single-row array imprinted with a checkerboard, and a 4 KiB
// array of 256 rows (several kernel chunks, the vector path) on clean
// and 10 h-imprinted silicon. Each is read at room temperature and hot
// (85 °C), where the wider noise leaves fewer cells outside the ±8σ
// pruning bound and the packed residue grows.
func TestKernelEquivalence(t *testing.T) {
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, remanent := range []bool{false, true} {
		for _, tempC := range []float64{31, 85} {
			t.Run(fmt.Sprintf("512cells/read%vC/remanent=%v", tempC, remanent), func(t *testing.T) {
				mk := func(w int) *Array {
					spec := kernelTestSpec(512, 42)
					spec.Workers = w
					a, err := New(spec)
					if err != nil {
						t.Fatal(err)
					}
					imprintSome(t, a, 5)
					if remanent {
						if _, err := a.PowerOn(25); err != nil {
							t.Fatal(err)
						}
						a.PowerOff(false) // retain contents: first capture is free
					}
					return a
				}
				requireThreeWay(t, mk, workers, 9, tempC)
			})
		}
		for _, hours := range []float64{0, 10} {
			for _, tempC := range []float64{25, 85} {
				t.Run(fmt.Sprintf("4KiB/imprint%vh/read%vC/remanent=%v", hours, tempC, remanent), func(t *testing.T) {
					mk := func(w int) *Array {
						spec := DefaultSpec()
						spec.Rows = 256
						spec.Cols = 4 << 10 * 8 / spec.Rows
						spec.Seed = 0xbe2c
						spec.Workers = w
						a, err := New(spec)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := a.PowerOn(25); err != nil {
							t.Fatal(err)
						}
						if hours > 0 {
							pat := make([]byte, a.Bytes())
							for i := range pat {
								pat[i] = byte(i*37 + 11)
							}
							if err := writeStress(a, pat, a.Spec().Aging.Ref, hours); err != nil {
								t.Fatal(err)
							}
						}
						a.PowerOff(!remanent)
						return a
					}
					requireThreeWay(t, mk, workers, 5, tempC)
				})
			}
		}
	}
}

// requireThreeWay runs one capture burst on identically built arrays
// through the serial reference, the scalar engine (both at one worker)
// and the kernel at every worker count in workers, and fails unless all
// of them agree on votes, the final data plane and counter consumption.
func requireThreeWay(t *testing.T, mk func(workers int) *Array, workers []int, captures int, tempC float64) {
	t.Helper()
	ar, as := mk(1), mk(1)
	vr, err := ar.CaptureVotesReference(captures, tempC)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := as.CaptureVotesScalar(captures, tempC)
	if err != nil {
		t.Fatal(err)
	}
	dr, _ := ar.Read()
	ds, _ := as.Read()
	for i := range vr {
		if vs[i] != vr[i] {
			t.Fatalf("cell %d: scalar %d reference %d", i, vs[i], vr[i])
		}
	}
	for i := range dr {
		if ds[i] != dr[i] {
			t.Fatalf("data byte %d: scalar %02x reference %02x", i, ds[i], dr[i])
		}
	}
	if as.PowerOnCount() != ar.PowerOnCount() {
		t.Fatalf("counters diverged: scalar %d reference %d", as.PowerOnCount(), ar.PowerOnCount())
	}
	for _, w := range workers {
		ak := mk(w)
		vk, err := ak.captureVotes(captures, tempC)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vr {
			if vk[i] != vr[i] {
				t.Fatalf("workers=%d cell %d: kernel %d reference %d", w, i, vk[i], vr[i])
			}
		}
		dk, _ := ak.Read()
		for i := range dr {
			if dk[i] != dr[i] {
				t.Fatalf("workers=%d data byte %d: kernel %02x reference %02x", w, i, dk[i], dr[i])
			}
		}
		if ak.PowerOnCount() != ar.PowerOnCount() {
			t.Fatalf("workers=%d counters diverged: kernel %d reference %d", w, ak.PowerOnCount(), ar.PowerOnCount())
		}
	}
}

// TestCaptureIntoNoAllocSteadyState: after the first burst warms the
// kernel's layout and scratch, CaptureVotesInto, CaptureMajorityInto
// and CaptureVotePlaneInto allocate nothing — on a 4 KiB array at one
// worker (the receiver's decode loop), and on an array whose pool is
// GOMAXPROCS wide, so every -cpu width dispatches to pool workers.
func TestCaptureIntoNoAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc gate runs in the non-race hot-path CI job")
	}
	t.Run("workers=1", func(t *testing.T) {
		spec := DefaultSpec()
		spec.Rows = 256
		spec.Cols = 4 << 10 * 8 / spec.Rows
		spec.Workers = 1
		a, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		requireCaptureIntoNoAlloc(t, a)
	})
	spec := kernelTestSpec(4096, 11)
	spec.Workers = runtime.GOMAXPROCS(0)
	a, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	requireCaptureIntoNoAlloc(t, a)
}

// requireCaptureIntoNoAlloc warms a's kernel with one burst, then fails
// if a steady-state CaptureVotesInto or CaptureMajorityInto burst
// allocates.
func requireCaptureIntoNoAlloc(t *testing.T, a *Array) {
	t.Helper()
	votes := make([]uint16, a.Cells())
	maj := make([]byte, a.Bytes())
	ctx := context.Background()
	if err := a.CaptureVotesInto(ctx, 5, 25, votes); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := a.CaptureVotesInto(ctx, 5, 25, votes); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("CaptureVotesInto allocates %.1f objects per steady-state burst", avg)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := a.CaptureMajorityInto(ctx, 5, 25, maj); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("CaptureMajorityInto allocates %.1f objects per steady-state burst", avg)
	}
	var plane VotePlane
	if err := a.CaptureVotePlaneInto(ctx, 5, 25, &plane); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := a.CaptureVotePlaneInto(ctx, 5, 25, &plane); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("CaptureVotePlaneInto allocates %.1f objects per steady-state burst", avg)
	}
}

// TestMidBurstCancellation: a burst cancelled mid-flight leaves the
// array unpowered (its data plane is unspecified), and the next fresh
// power-on runs a complete race whose output matches an undisturbed
// twin — the consumed counters are not rewound, so the twin replays the
// same consumption.
func TestMidBurstCancellation(t *testing.T) {
	spec := kernelTestSpec(2048, 77)
	a, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the burst dispatches any chunk
	if err := a.CaptureVotesInto(ctx, 5, 25, make([]uint16, a.Cells())); err == nil {
		t.Fatal("cancelled burst reported success")
	}
	if a.Powered() {
		t.Fatal("cancelled burst left the array powered")
	}
	// The cancelled burst consumed its counters (matching the scalar
	// engine's contract): replay the same consumption on a twin, then
	// both must agree on the next full power-on race.
	twin, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for twin.PowerOnCount() < a.PowerOnCount() {
		if _, err := twin.PowerCycle(25); err != nil {
			t.Fatal(err)
		}
	}
	twin.PowerOff(true)
	got, err := a.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("post-cancellation power-on diverged at byte %d: %02x vs %02x", i, got[i], want[i])
		}
	}
}

// TestKernelLayoutInvalidation: stress and recovery move cell biases, so
// a cached packed layout must not survive them — captures after aging
// must match a fresh array replaying the same history.
func TestKernelLayoutInvalidation(t *testing.T) {
	spec := kernelTestSpec(256, 13)
	run := func(a *Array, warm bool) []uint16 {
		if warm {
			// Warm the kernel cache before aging.
			if _, err := a.captureVotes(3, 25); err != nil {
				t.Fatal(err)
			}
		} else {
			// Same counter consumption without building a cached layout
			// beforehand.
			if _, err := a.CaptureVotesReference(3, 25); err != nil {
				t.Fatal(err)
			}
		}
		pat := make([]byte, a.Bytes())
		for i := range pat {
			pat[i] = 0x0F
		}
		if err := writeStress(a, pat, analog.Conditions{VoltageV: 3.6, TempC: 105}, 8); err != nil {
			t.Fatal(err)
		}
		a.PowerOff(true)
		v, err := a.captureVotes(7, 25)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a1, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm := run(a1, true)
	cold := run(a2, false)
	for i := range warm {
		if warm[i] != cold[i] {
			t.Fatalf("cell %d: cached-layout votes %d, fresh votes %d — stale layout survived aging",
				i, warm[i], cold[i])
		}
	}
}

// BenchmarkCaptureVotesInto64KB is a steady-state loop of per-cell
// counts: one array, one reused vote buffer, burst after burst, each a
// plane burst and its unpack. The 0 B/op, 0 allocs/op this reports is
// part of the kernel's contract — layout, scratch and slice planes are
// cached on the array after the first burst (see
// TestCaptureIntoNoAllocSteadyState for the hard assertion).
func BenchmarkCaptureVotesInto64KB(b *testing.B) {
	s := DefaultSpec()
	a, err := New(s)
	if err != nil {
		b.Fatal(err)
	}
	votes := make([]uint16, a.Cells())
	ctx := context.Background()
	if err := a.CaptureVotesInto(ctx, 25, 25, votes); err != nil {
		b.Fatal(err) // warm the kernel layout outside the timed loop
	}
	b.SetBytes(int64(a.Bytes() * 25))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.CaptureVotesInto(ctx, 25, 25, votes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaptureMajorityInto64KB is the same loop through the
// hard-decision surface (majority threshold over the counted votes).
func BenchmarkCaptureMajorityInto64KB(b *testing.B) {
	s := DefaultSpec()
	a, err := New(s)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, a.Bytes())
	ctx := context.Background()
	if err := a.CaptureMajorityInto(ctx, 5, 25, out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(a.Bytes() * 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.CaptureMajorityInto(ctx, 5, 25, out); err != nil {
			b.Fatal(err)
		}
	}
}
