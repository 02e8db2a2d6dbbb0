//go:build !amd64 || purego

package rng

// Without the AVX-512 build the mismatch synthesis runs its scalar
// code; these stubs keep the callers, which check haveAVX512 first,
// compiling.

func fieldRowAVX512(f *Field, r float64, out *float64, n uint64) {
	panic("rng: fieldRowAVX512 unavailable")
}

func whiteCellsAVX512(state, per uint64, w *White, field *float64, mean float64, out *float32, n uint64) uint64 {
	panic("rng: whiteCellsAVX512 unavailable")
}

func sinAVX512(x, out *float64, n uint64) { panic("rng: sinAVX512 unavailable") }

func cosAVX512(x, out *float64, n uint64) { panic("rng: cosAVX512 unavailable") }

func logAVX512(x, out *float64, n uint64) { panic("rng: logAVX512 unavailable") }
