package sram

import (
	"math"

	"invisiblebits/internal/rng"
)

// ReferencePlaneDiff re-synthesizes a's mismatch plane with the two-pass
// oracle from a's seed and returns the first cell whose mismatch
// differs from a's bit for bit, or -1. It lets the external tests,
// which build catalog devices, hold their planes to the oracle.
func ReferencePlaneDiff(a *Array) int {
	ref := &Array{spec: a.spec, n: a.n, mismatch: make([]float32, a.n)}
	ref.synthesizeMismatchReference(rng.NewSource(a.spec.Seed).Split())
	for i, want := range ref.mismatch {
		if math.Float32bits(a.mismatch[i]) != math.Float32bits(want) {
			return i
		}
	}
	return -1
}
