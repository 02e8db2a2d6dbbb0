//go:build amd64 && !purego

package rng

// fieldRowAVX512 writes f.At(r, c) for columns c in [0, n) of row r to
// out, eight columns per iteration; n is a positive multiple of 8.
// Implemented in synthkernel_amd64.s; only called when haveAVX512 is
// true.
//
//go:noescape
func fieldRowAVX512(f *Field, r float64, out *float64, n uint64)

// whiteCellsAVX512 draws cells [0, n) of the white component from a
// SplitMix64 state, per draws per cell, as WhiteCells documents; n is a
// positive multiple of 8. It returns n, or the first cell whose first
// Norm uniform is zero. Implemented in synthkernel_amd64.s.
//
//go:noescape
func whiteCellsAVX512(state, per uint64, w *White, field *float64, mean float64, out *float32, n uint64) uint64

// sinAVX512, cosAVX512 and logAVX512 run the kernels' sin, cos and log
// over x[:n] into out[:n] (n a positive multiple of 8), so that
// TestSynthKernelsMatchMath can hold each to package math bit for bit.
//
//go:noescape
func sinAVX512(x, out *float64, n uint64)

//go:noescape
func cosAVX512(x, out *float64, n uint64)

//go:noescape
func logAVX512(x, out *float64, n uint64)
