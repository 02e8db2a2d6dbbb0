package sram

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"invisiblebits/internal/rng"
)

// requirePlaneMatches fails unless p counts exactly the votes want,
// through Count, CountsInto and HistogramInto, and the sliced compare
// agrees with the scalar threshold rule at every threshold around the
// majority.
func requirePlaneMatches(t *testing.T, p *VotePlane, want []uint16, captures int) {
	t.Helper()
	if p.Cells() != len(want) || p.captures != captures {
		t.Fatalf("plane sized %d cells / %d captures, want %d / %d", p.Cells(), p.captures, len(want), captures)
	}
	got := make([]uint16, len(want))
	p.CountsInto(got)
	for i, v := range want {
		if c := p.Count(i); c != v || got[i] != v {
			t.Fatalf("cell %d: Count %d, CountsInto %d, want %d", i, c, got[i], v)
		}
	}
	// HistogramInto over the whole plane and over ranges that start and
	// end inside a word, against a histogram of want.
	n := len(want)
	hist := make([]int, captures+1)
	for _, r := range [][2]int{{0, n}, {3, n - 5}, {n / 3, 2*n/3 + 1}, {n - 1, n}, {n / 2, n / 2}} {
		lo, hi := r[0], r[1]
		wantHist := make([]int, captures+1)
		for _, v := range want[lo:hi] {
			wantHist[v]++
		}
		p.HistogramInto(hist, lo, hi)
		for v := range hist {
			if hist[v] != wantHist[v] {
				t.Fatalf("HistogramInto over cells [%d, %d): %d cells count %d, want %d", lo, hi, hist[v], v, wantHist[v])
			}
		}
	}
	ge := make([]byte, len(want)/8)
	below := make([]byte, len(want)/8)
	for _, th := range []int{0, 1, captures / 2, captures/2 + 1, (captures + 1) / 2, captures, captures + 1} {
		p.AtLeastInto(ge, th)
		p.BelowInto(below, th)
		for i, v := range want {
			if got, want := ge[i/8]>>(i%8)&1 != 0, int(v) >= th; got != want {
				t.Fatalf("threshold %d cell %d (votes %d): sliced compare %v, scalar %v", th, i, v, got, want)
			}
			if below[i/8]>>(i%8)&1 == ge[i/8]>>(i%8)&1 {
				t.Fatalf("threshold %d cell %d: BelowInto is not the complement of AtLeastInto", th, i)
			}
		}
	}
}

// TestVotePlaneEquivalence: a VotePlane burst counts exactly what the
// serial reference engine counts, and leaves the same data plane and
// counter consumption, for 1..33 captures — remanent first captures, a
// sub-word array and a tail word, fresh and imprinted silicon, a hot
// read, at one worker and at GOMAXPROCS. Add matches uint16 sums of two
// reference bursts, and the sliced compare matches the scalar
// threshold.
func TestVotePlaneEquivalence(t *testing.T) {
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	ctx := context.Background()
	shapes := []struct {
		cells    int
		hours    float64
		remanent bool
		tempC    float64
	}{
		{512, 5, false, 25},
		{512, 5, true, 25},
		{512, 0, true, 25},  // fresh: the widest noisy set at 25 °C
		{512, 5, false, 85}, // read hot: a wider noisy band
		{56, 0, true, 25},   // one partial word
		{200, 3, false, 25}, // three words and a tail
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("%dcells/imprint%vh/remanent=%v", sh.cells, sh.hours, sh.remanent)
		if sh.tempC != 25 {
			name += fmt.Sprintf("/read%vC", sh.tempC)
		}
		t.Run(name, func(t *testing.T) {
			mk := func(w int) *Array {
				spec := kernelTestSpec(sh.cells, uint64(sh.cells)+2)
				spec.Workers = w
				a, err := New(spec)
				if err != nil {
					t.Fatal(err)
				}
				if sh.hours > 0 {
					imprintSome(t, a, sh.hours)
				}
				if sh.remanent {
					if _, err := a.PowerOn(25); err != nil {
						t.Fatal(err)
					}
					a.PowerOff(false)
				}
				return a
			}
			for captures := 1; captures <= 33; captures++ {
				ar := mk(1)
				vr, err := ar.CaptureVotesReference(captures, sh.tempC)
				if err != nil {
					t.Fatal(err)
				}
				dr, _ := ar.Read()
				for _, w := range workers {
					ak := mk(w)
					var p VotePlane
					if err := ak.CaptureVotePlaneInto(ctx, captures, sh.tempC, &p); err != nil {
						t.Fatal(err)
					}
					requirePlaneMatches(t, &p, vr, captures)
					dk, _ := ak.Read()
					for i := range dr {
						if dk[i] != dr[i] {
							t.Fatalf("captures=%d workers=%d data byte %d: plane burst %02x, reference %02x", captures, w, i, dk[i], dr[i])
						}
					}
					if ak.PowerOnCount() != ar.PowerOnCount() {
						t.Fatalf("captures=%d workers=%d: counters %d, reference %d", captures, w, ak.PowerOnCount(), ar.PowerOnCount())
					}
				}

				// Accumulate a second burst: Add must equal the uint16 sum
				// of the reference's two bursts.
				second := 34 - captures
				vr2, err := ar.CaptureVotesReference(second, sh.tempC)
				if err != nil {
					t.Fatal(err)
				}
				ak := mk(workers[len(workers)-1])
				var acc, burst VotePlane
				if err := ak.CaptureVotePlaneInto(ctx, captures, sh.tempC, &acc); err != nil {
					t.Fatal(err)
				}
				if err := ak.CaptureVotePlaneInto(ctx, second, sh.tempC, &burst); err != nil {
					t.Fatal(err)
				}
				if err := acc.Add(&burst); err != nil {
					t.Fatal(err)
				}
				sum := make([]uint16, len(vr))
				for i := range sum {
					sum[i] = vr[i] + vr2[i]
				}
				requirePlaneMatches(t, &acc, sum, 34)
			}
		})
	}
}

// TestVotePlaneEquivalenceAtCaptureCeiling: a 65535-capture plane burst matches
// the reference, Add reaches exactly MaxCaptures and refuses to pass
// it, and the sliced compare holds for arbitrary 16-bit counts.
func TestVotePlaneEquivalenceAtCaptureCeiling(t *testing.T) {
	spec := kernelTestSpec(16, 7)
	ak, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var p VotePlane
	if err := ak.CaptureVotePlaneInto(context.Background(), MaxCaptures, 25, &p); err != nil {
		t.Fatal(err)
	}
	vr, err := ar.CaptureVotesReference(MaxCaptures, 25)
	if err != nil {
		t.Fatal(err)
	}
	requirePlaneMatches(t, &p, vr, MaxCaptures)
	var one VotePlane
	if err := ak.CaptureVotePlaneInto(context.Background(), 1, 25, &one); err != nil {
		t.Fatal(err)
	}
	var cce *CaptureCountError
	if err := p.Add(&one); !errors.As(err, &cce) || cce.Captures != MaxCaptures+1 {
		t.Fatalf("Add past the ceiling: err = %v, want *CaptureCountError for %d", err, MaxCaptures+1)
	}
	requirePlaneMatches(t, &p, vr, MaxCaptures) // a refused Add leaves p unchanged

	// Two planes of arbitrary counts summing to exactly MaxCaptures.
	const cells = 200
	src := rng.NewSource(65535)
	var x, y VotePlane
	x.reset(cells, 32768)
	y.reset(cells, MaxCaptures-32768)
	sum := make([]uint16, cells)
	for i := 0; i < cells; i++ {
		a := uint16(src.Uint64() % 32769)
		b := uint16(src.Uint64() % (MaxCaptures - 32768 + 1))
		if i < 4 {
			a, b = 32768, MaxCaptures-32768 // carries through every slice
		}
		x.SetCount(i, a)
		y.SetCount(i, b)
		sum[i] = a + b
	}
	if err := x.Add(&y); err != nil {
		t.Fatal(err)
	}
	requirePlaneMatches(t, &x, sum, MaxCaptures)
	dst := make([]byte, cells/8)
	for k := 0; k < 50; k++ {
		th := int(src.Uint64() % (MaxCaptures + 2))
		x.AtLeastInto(dst, th)
		for i, v := range sum {
			if got, want := dst[i/8]>>(i%8)&1 != 0, int(v) >= th; got != want {
				t.Fatalf("threshold %d cell %d (count %d): sliced compare %v, scalar %v", th, i, v, got, want)
			}
		}
	}
}
