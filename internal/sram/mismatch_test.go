package sram

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"invisiblebits/internal/rng"
)

// TestMismatchFieldEquivalence requires the one-pass mismatch synthesis,
// its field evaluated in parallel, to write the two-pass oracle's plane
// bit for bit, with and without the defect population and the smooth
// field, at one worker and at GOMAXPROCS.
func TestMismatchFieldEquivalence(t *testing.T) {
	def := DefaultSpec()
	seed := uint64(0)
	for _, g := range [][2]int{{1, 8}, {8, 8}, {3, 24}, {37, 64}, {512, 1024}} {
		for _, extreme := range []float64{0, def.ExtremeFrac} {
			for _, gradient := range []float64{0, def.GradientFrac} {
				for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
					seed++
					name := fmt.Sprintf("%dx%d/extreme=%g/gradient=%g/workers=%d", g[0], g[1], extreme, gradient, workers)
					t.Run(name, func(t *testing.T) {
						spec := def
						spec.Rows, spec.Cols = g[0], g[1]
						spec.ExtremeFrac, spec.GradientFrac = extreme, gradient
						spec.Workers = workers
						spec.Seed = seed
						a, err := New(spec)
						if err != nil {
							t.Fatal(err)
						}
						got := append([]float32(nil), a.mismatch...)
						for i := 0; i < a.Cells(); i++ {
							if t0, t1 := a.EquivalentTimes(i); t0 != 0 || t1 != 0 {
								t.Fatalf("cell %d: equivalent times (%v, %v) after New, want 0", i, t0, t1)
							}
						}
						clear(a.mismatch)
						a.synthesizeMismatchReference(rng.NewSource(spec.Seed).Split())
						for i, want := range a.mismatch {
							if math.Float32bits(got[i]) != math.Float32bits(want) {
								t.Fatalf("cell %d: mismatch %v, oracle %v", i, got[i], want)
							}
						}
					})
				}
			}
		}
	}
}
