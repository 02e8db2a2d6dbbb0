package rng

import (
	"math"
	"testing"
)

// synthBatch is how many arguments one kernel call checks: the long
// input lists run in batches so the test stays small in memory.
const synthBatch = 1 << 16

// checkKernel runs kernel over xs in batches (the last padded to a
// multiple of 8 by repeating its first argument) and requires every
// result to equal ref bit for bit.
func checkKernel(t *testing.T, name string, kernel func(x, out *float64, n uint64), ref func(float64) float64, xs []float64) {
	t.Helper()
	in := make([]float64, 0, synthBatch+8)
	out := make([]float64, synthBatch+8)
	for lo := 0; lo < len(xs); lo += synthBatch {
		in = append(in[:0], xs[lo:min(lo+synthBatch, len(xs))]...)
		for len(in)%8 != 0 {
			in = append(in, in[0])
		}
		kernel(&in[0], &out[0], uint64(len(in)))
		for i, x := range in {
			if want := ref(x); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("%s(%v) [bits %#016x] = %v [%#016x], math gives %v [%#016x]",
					name, x, math.Float64bits(x), out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
			}
		}
	}
}

// withNeighbours returns each x of xs with the floats on either side.
func withNeighbours(xs ...float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	return out
}

// TestSynthKernelsMatchMath holds the synthesis kernels' sin, cos and
// log, through test entry points that run each macro over a slice, to
// math.Sin, math.Cos and math.Log bit for bit: on random arguments, on
// the octant boundaries kπ/4 and their neighbours, on ±0 and tiny
// arguments, on the uniforms and angles Norm feeds them, and, for log,
// on every power of two and every power-of-two multiple of √2/2, where
// log_amd64.s's f1 ≤ √2/2 branch decides (k·Ln2Hi then differs for
// f1 < √2/2 at x = √2/2·2^32).
func TestSynthKernelsMatchMath(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512 F/DQ on this host (or built purego): the synthesis kernels do not run, so there is nothing to compare")
	}
	src := NewSource(0x5eed)
	const eightPi = 8 * math.Pi

	t.Run("sin", func(t *testing.T) {
		var xs []float64
		for k := -32; k <= 32; k++ {
			xs = append(xs, withNeighbours(float64(k)*math.Pi/4)...)
		}
		xs = append(xs, 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300)
		for i := 0; i < 1<<12; i++ {
			xs = append(xs, (src.Float64()*2-1)*1e-8)
		}
		for i := 0; i < 1<<22; i++ {
			xs = append(xs, (src.Float64()*2-1)*eightPi)
		}
		checkKernel(t, "sin", sinAVX512, math.Sin, xs)
	})

	t.Run("cos", func(t *testing.T) {
		var xs []float64
		for _, v := range []float64{0, 0x1p-53, 0.5, 1 - 0x1p-53} {
			xs = append(xs, 2*math.Pi*v)
		}
		for k := -32; k <= 32; k++ {
			xs = append(xs, withNeighbours(float64(k)*math.Pi/4)...)
		}
		for i := 0; i < 1_000_000; i++ {
			xs = append(xs, 2*math.Pi*src.Float64())
		}
		checkKernel(t, "cos", cosAVX512, math.Cos, xs)
	})

	t.Run("log", func(t *testing.T) {
		var xs []float64
		for k := 1; k <= 1<<12; k++ {
			xs = append(xs, float64(k)*0x1p-53)
		}
		xs = append(xs, withNeighbours(math.Sqrt2/2, 1-0x1p-53)...)
		for e := -1074; e <= 1023; e++ {
			xs = append(xs, math.Ldexp(1, e))
			if x := math.Ldexp(math.Sqrt2/2, e); x >= 0x1p-1022 && !math.IsInf(x, 0) {
				xs = append(xs, withNeighbours(x)...)
			}
		}
		checkKernel(t, "log", logAVX512, math.Log, xs)
		// 10^7 of Norm's first uniforms, batch by batch.
		xs = make([]float64, synthBatch)
		for done := 0; done < 10_000_000; done += len(xs) {
			for i := range xs {
				for xs[i] = src.Float64(); xs[i] == 0; xs[i] = src.Float64() {
				}
			}
			checkKernel(t, "log", logAVX512, math.Log, xs)
		}
	})
}

// whiteScalar is the white draw the mismatch synthesis makes on its
// scalar path, cell after cell from one source.
func whiteScalar(src *Source, w *White, field []float64, mean float64, out []float32) {
	for i := range out {
		smooth := field[i] - mean
		if w.ExtremeFrac > 0 && src.Float64() < w.ExtremeFrac {
			mag := w.ExtremeMin + src.Float64()*w.ExtremeSpan
			if src.Float64() < 0.5 {
				mag = -mag
			}
			out[i] = float32(mag + smooth)
		} else {
			out[i] = float32(src.NormScaled(0, w.Sigma) + smooth)
		}
	}
}

// TestSynthKernelFieldRow holds the field kernel to Field.At bit for
// bit on random fields, rows and widths, a zero field included.
func TestSynthKernelFieldRow(t *testing.T) {
	if !SynthKernels() {
		t.Skip("no AVX-512 F/DQ on this host (or built purego): Row writes nothing")
	}
	src := NewSource(11)
	for trial := 0; trial < 64; trial++ {
		rows, cols := 1+src.Intn(600), 1+src.Intn(1200)
		var f Field
		if trial > 0 { // trial 0 is the zero field: every term ±0
			amp := 2.4 * src.Float64()
			for i := range f.Waves {
				f.Waves[i] = Wave{
					KR:    (src.Float64()*2 - 1) * 3 * math.Pi / float64(rows),
					KC:    (src.Float64()*2 - 1) * 3 * math.Pi / float64(cols),
					Phase: src.Float64() * 2 * math.Pi,
					Amp:   amp * (0.5 + src.Float64()),
				}
			}
			f.TiltR = (src.Float64()*2 - 1) * amp / float64(rows)
			f.TiltC = (src.Float64()*2 - 1) * amp / float64(cols)
		}
		out := make([]float64, cols)
		for _, r := range []int{0, rows / 2, rows - 1} {
			n := f.Row(r, out)
			if n != cols&^7 {
				t.Fatalf("Row wrote %d of %d columns, want %d", n, cols, cols&^7)
			}
			for c := 0; c < n; c++ {
				if want := f.At(r, c); math.Float64bits(out[c]) != math.Float64bits(want) {
					t.Fatalf("trial %d, cell (%d, %d): kernel %v, At %v", trial, r, c, out[c], want)
				}
			}
		}
	}
}

// TestSynthKernelWhiteCells holds the white kernel to the scalar draws
// bit for bit, with and without the defect class, and requires it to
// stop at a retrying cell: one whose first Norm uniform is exactly 0,
// at lanes 0, 3 and 7 of a block. SplitMix64 outputs 0 when its
// incremented state is 0, so a start state of −(d+1)·γ makes draw d 0.
func TestSynthKernelWhiteCells(t *testing.T) {
	if !SynthKernels() {
		t.Skip("no AVX-512 F/DQ on this host (or built purego): WhiteCells writes nothing")
	}
	const n = 8 * 64
	field := make([]float64, n+5)
	src := NewSource(3)
	for i := range field {
		field[i] = (src.Float64()*2 - 1) * 5
	}
	for _, extreme := range []float64{0, 0.005, 0.3} {
		w := &White{Sigma: 30, ExtremeFrac: extreme, ExtremeMin: 150, ExtremeSpan: 350}
		per := w.Draws()
		for seed := uint64(0); seed < 8; seed++ {
			start := NewSource(seed * 0x1234567)
			want := make([]float32, n+5)
			ref := *start
			whiteScalar(&ref, w, field, 0.25, want)
			got := make([]float32, n+5)
			if done := WhiteCells(*start, w, field, 0.25, got); done != n {
				t.Fatalf("extreme=%g seed %d: WhiteCells covered %d cells, want %d", extreme, seed, done, n)
			}
			for i := 0; i < n; i++ {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("extreme=%g seed %d, cell %d: kernel %v, scalar %v", extreme, seed, i, got[i], want[i])
				}
			}
		}
		for _, cell := range []int{0, 3, 7, 8*37 + 3, n - 1} {
			d := per*uint64(cell) + per - 2 // the cell's first Norm uniform
			start := NewSource(-((d + 1) * splitMixGamma))
			got := make([]float32, n)
			done := WhiteCells(*start, w, field, 0.25, got)
			probe := *start
			probe.Skip(d)
			defect := extreme > 0 && func() bool { p := *start; p.Skip(per * uint64(cell)); return p.Float64() < extreme }()
			if probe.Uint64() != 0 {
				t.Fatalf("start state does not zero draw %d", d)
			}
			if defect {
				// A defect cell draws a magnitude, not a uniform: no retry.
				if done != n {
					t.Fatalf("extreme=%g: defect cell %d stopped the kernel at %d", extreme, cell, done)
				}
				continue
			}
			if done != cell {
				t.Fatalf("extreme=%g: retry at cell %d, kernel stopped at %d", extreme, cell, done)
			}
			want := make([]float32, cell)
			ref := *start
			whiteScalar(&ref, w, field, 0.25, want)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("extreme=%g, retry at %d: cell %d kernel %v, scalar %v", extreme, cell, i, got[i], want[i])
				}
			}
		}
	}
}
