package rng

import "math"

// Mismatch-synthesis kernels: the two per-cell passes that give a
// simulated device its silicon, vectorized eight cells per instruction.
//
// A device's mismatch plane is a smooth across-die field (a planar tilt
// plus four sinusoids, four math.Sin per cell) and a white draw per cell
// (a defect test, then a defect's magnitude and sign or a Box–Muller
// variate: math.Log, math.Sqrt and math.Cos). On hosts with AVX-512
// F/DQ both passes run as kernels that perform exactly the float64
// operations the scalar code performs, in the same order:
//
//   - sin and cos replay math's Cody–Waite reduction (|x| < 2^29, so the
//     Payne–Hanek path never runs), the octant and both Horner
//     polynomials, and sin(±0) returns its argument;
//   - log replays math.Log's amd64 assembly: frexp by bit masks, k−1
//     and f1·2 when f1 ≤ √2/2 (its CMPSD is not-less-than with √2/2 as
//     the first operand, so equality takes the branch), s = f/(2+f) and
//     the two polynomials;
//   - no operation is fused: Go never emits FMA on amd64 for a*b+c, so
//     every product and sum rounds separately; sqrt is the correctly
//     rounded VSQRTPD, conversions are exact or round to nearest, and no
//     approximate instruction (VRCP14, VRSQRT14) is used.
//
// The result is bit-identical to the scalar code by construction, and
// TestSynthKernelsMatchMath holds the kernels' sin, cos and log to
// math.Sin, math.Cos and math.Log bit for bit. Hosts without AVX-512,
// and builds tagged purego, run the scalar code instead.

// Wave is one sinusoid of a smooth across-die field: at cell (r, c) it
// adds Amp·sin(KR·r + KC·c + Phase).
type Wave struct{ KR, KC, Phase, Amp float64 }

// Field is a smooth across-die field: a planar tilt plus four waves.
// The kernel reads its memory layout; keep the fields in this order.
type Field struct {
	Waves        [4]Wave
	TiltR, TiltC float64
}

// At returns the field at cell (r, c): the tilt, then each wave's term
// added in order.
func (f *Field) At(r, c int) float64 {
	s := f.TiltR*float64(r) + f.TiltC*float64(c)
	for _, w := range f.Waves {
		s += w.Amp * math.Sin(w.KR*float64(r)+w.KC*float64(c)+w.Phase)
	}
	return s
}

// SynthKernels reports whether the AVX-512 mismatch-synthesis kernels
// run on this host. Without them Row and WhiteCells write nothing.
func SynthKernels() bool { return haveAVX512 }

// Row writes f.At(r, c) to out[c] for the leading multiple of
// eight columns of out, bit for bit, and returns how many it wrote: 0
// when SynthKernels is false.
func (f *Field) Row(r int, out []float64) int {
	n := len(out) &^ 7
	if !haveAVX512 || n == 0 {
		return 0
	}
	fieldRowAVX512(f, float64(r), &out[0], uint64(n))
	return n
}

// White is the white component of the mismatch synthesis. Cell i draws
// from its source in order: when ExtremeFrac > 0 a defect test
// Float64() < ExtremeFrac, then either a defect's magnitude
// ExtremeMin + Float64()·ExtremeSpan, negated when Float64() < 0.5, or
// 0 + Sigma·Norm().
type White struct {
	Sigma       float64
	ExtremeFrac float64
	ExtremeMin  float64
	ExtremeSpan float64 // the defect magnitude's range, max − min
}

// Draws returns how many draws each cell makes when Norm does not retry
// a zero first uniform.
func (w *White) Draws() uint64 {
	if w.ExtremeFrac > 0 {
		return 3
	}
	return 2
}

// WhiteCells draws the white component of cells 0, 1, … from src, cell
// i from src skipped past i·w.Draws() draws, and writes
// out[i] = float32(white + (field[i] − mean)), bit for bit what the
// scalar draws write. It covers the leading multiple of eight of
// len(out) cells and returns the number of cells before the first one
// whose Norm draws a zero first uniform and so retries: that cell and
// the rest of its block of eight are left unspecified, for the caller
// to redraw serially. It returns 0 when SynthKernels is false.
func WhiteCells(src Source, w *White, field []float64, mean float64, out []float32) int {
	n := len(out) &^ 7
	if !haveAVX512 || n == 0 {
		return 0
	}
	_ = field[n-1]
	return int(whiteCellsAVX512(src.state, w.Draws(), w, &field[0], mean, &out[0], uint64(n)))
}
