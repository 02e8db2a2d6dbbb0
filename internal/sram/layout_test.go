package sram

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
)

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on, so a test can cancel an operation between any two
// of its cancellation checks.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func newCancelAfter(n int) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(int64(n))
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// requireLayout builds a's capture layout for sigma and requires every
// array of it to equal the serial oracle's, the word offsets to index
// the residue, and the burst scratch to be sized to the noisy count.
func requireLayout(t *testing.T, a *Array, sigma float64, what string) {
	t.Helper()
	if err := a.ensureKernel(context.Background(), sigma); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	k, want := &a.kern, a.kernelLayoutReference(sigma)
	if !slices.Equal(k.det1, want.det1) || !slices.Equal(k.det0, want.det0) {
		t.Fatalf("%s: deterministic planes differ from the serial build", what)
	}
	if !slices.Equal(k.cellIdx, want.cellIdx) || !slices.Equal(k.idxMul, want.idxMul) {
		t.Fatalf("%s: noisy cells differ from the serial build (%d vs %d cells)", what, len(k.cellIdx), len(want.cellIdx))
	}
	bitsEqual := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	bits32Equal := func(x, y []float32) bool {
		return slices.EqualFunc(x, y, func(p, q float32) bool { return math.Float32bits(p) == math.Float32bits(q) })
	}
	if !bitsEqual(k.xt, want.xt) || !bits32Equal(k.xtLo, want.xtLo) || !bits32Equal(k.xtHi, want.xtHi) {
		t.Fatalf("%s: vote thresholds differ from the serial build", what)
	}
	nc := len(want.cellIdx)
	for w, off := range k.offs {
		if first, _ := slices.BinarySearch(want.cellIdx, uint32(w*64)); int(off) != first {
			t.Fatalf("%s: word %d offset %d, its first noisy cell is residue entry %d", what, w, off, first)
		}
	}
	nwN := (nc + 63) / 64
	if len(k.votes) != nwN || len(k.slow) != nwN || len(k.last) != nwN || len(k.draws) != nc {
		t.Fatalf("%s: burst scratch sized %d/%d/%d words and %d draws for %d noisy cells",
			what, len(k.votes), len(k.slow), len(k.last), len(k.draws), nc)
	}
	for _, c := range []int{cap(k.cellIdx), cap(k.idxMul), cap(k.xt), cap(k.draws)} {
		if c < nc || nc < c/4 {
			t.Fatalf("%s: packed arrays hold %d cells for %d noisy cells, want at least %d and at most four times", what, c, nc, nc)
		}
	}
}

// TestKernelLayoutEquivalence holds the two-pass, pool-sharded layout
// build to the serial build it replaced, array for array: cell counts
// that end mid-word, two dies of each (the die decides which cells are
// noisy, so where the word and shard edges fall among them), one to
// four workers, fresh silicon, an imprint (fewer noisy cells) and a hot
// read of it (more). It also cancels builds at every cancellation check
// (requireCancelledBuildRecovers). The packed arrays must hold between
// one and four times the noisy count, so the 32768-cell imprint, which
// leaves under a quarter of the fresh noisy cells, must shrink them.
func TestKernelLayoutEquivalence(t *testing.T) {
	for _, cells := range []int{8, 72, 1000, 4104, 32768} {
		for die := 1; die <= 2; die++ {
			for workers := 1; workers <= 4; workers++ {
				t.Run(fmt.Sprintf("cells=%d/die=%d/workers=%d", cells, die, workers), func(t *testing.T) {
					spec := kernelTestSpec(cells, uint64(cells*10+die))
					spec.Workers = workers
					a, err := New(spec)
					if err != nil {
						t.Fatal(err)
					}
					requireLayout(t, a, a.noiseSigmaAt(25), "fresh")
					fresh := len(a.kern.cellIdx)
					imprintSome(t, a, 10)
					requireLayout(t, a, a.noiseSigmaAt(25), "imprinted")
					if cells == 32768 && 4*len(a.kern.cellIdx) >= fresh {
						t.Fatalf("the imprint left %d of %d noisy cells: it does not exercise a shrink", len(a.kern.cellIdx), fresh)
					}
					requireLayout(t, a, a.noiseSigmaAt(125), "imprinted, read hot")
				})
			}
		}
	}
	for workers := 1; workers <= 4; workers++ {
		t.Run(fmt.Sprintf("cancelled/workers=%d", workers), func(t *testing.T) {
			spec := kernelTestSpec(4104, 29)
			spec.Workers = workers
			requireCancelledBuildRecovers(t, spec)
		})
	}
}

// requireCancelledBuildRecovers cancels a capture at every cancellation
// check in turn, on a freshly imprinted array whose bias plane and
// layout are both stale. A cancel that consumed no power-on counter
// came before the races and must leave no layout marked current, and
// the next good capture must build the serial oracle's layout and read
// the votes of a twin that was never cancelled.
func requireCancelledBuildRecovers(t *testing.T, spec Spec) {
	t.Helper()
	imprinted := func() *Array {
		a, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		imprintSome(t, a, 10)
		return a
	}
	want, err := imprinted().captureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	layoutCancels := 0
	for n := 0; ; n++ {
		a := imprinted()
		before := a.PowerOnCount()
		if err := a.CaptureVotesInto(newCancelAfter(n), 5, 25, make([]uint16, a.Cells())); err == nil {
			break
		}
		if a.Powered() {
			t.Fatalf("cancel at check %d left the array powered", n)
		}
		if a.PowerOnCount() != before {
			continue // cancelled among the races, which consumed their counters
		}
		layoutCancels++
		if a.kern.valid && a.kern.epoch == a.biasEpoch && a.biasFresh {
			t.Fatalf("cancel at check %d left a layout marked current", n)
		}
		got, err := a.captureVotes(5, 25)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("capture after a cancel at check %d differs from the twin's", n)
		}
		requireLayout(t, a, a.noiseSigmaAt(25), fmt.Sprintf("after a cancel at check %d", n))
	}
	// The capture's own check, the bias rebuild and both layout passes
	// each cancel at least once.
	if layoutCancels < 4 {
		t.Fatalf("only %d cancellation points before the layout was complete", layoutCancels)
	}
}
