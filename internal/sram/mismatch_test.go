package sram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"invisiblebits/internal/rng"
)

// synthPaths runs f once per mismatch-synthesis path this host has:
// the scalar code, then the AVX-512 kernels where they run. Each run
// sees synthKernels set to its path.
func synthPaths(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { synthKernels = v }(synthKernels)
	paths := []bool{false}
	if rng.SynthKernels() {
		paths = append(paths, true)
	}
	for _, kernels := range paths {
		synthKernels = kernels
		t.Run(fmt.Sprintf("kernels=%v", kernels), f)
	}
}

// TestMismatchFieldEquivalence requires the one-pass mismatch synthesis,
// its field and its white draws run in parallel, to write the two-pass
// oracle's plane bit for bit, with and without the defect population
// and the smooth field, at one, three and four workers and at
// GOMAXPROCS, on the scalar path and on the AVX-512 kernels. The
// geometries give rows shorter than, equal to and longer than one
// vector block, with and without a scalar tail.
func TestMismatchFieldEquivalence(t *testing.T) {
	synthPaths(t, testMismatchFieldEquivalence)
}

func testMismatchFieldEquivalence(t *testing.T) {
	def := DefaultSpec()
	seed := uint64(0)
	for _, g := range [][2]int{{1, 8}, {8, 8}, {3, 24}, {2, 12}, {37, 64}, {13, 40}, {512, 1024}} {
		for _, extreme := range []float64{0, def.ExtremeFrac} {
			for _, gradient := range []float64{0, def.GradientFrac} {
				for _, workers := range []int{1, 3, 4, runtime.GOMAXPROCS(0)} {
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

// TestMismatchFieldPins pins the smooth field's float64 values and its
// row-major mean (smoothField) for three geometries: rows shorter than
// one vector block, rows with a scalar tail, and an MSP432P401's. The
// mismatch plane is float32, so a one-ulp error in a field term cannot
// show there; these hashes can. The literals were recorded on the
// scalar path, and the AVX-512 field kernel must reproduce them.
func TestMismatchFieldPins(t *testing.T) {
	synthPaths(t, testMismatchFieldPins)
}

func testMismatchFieldPins(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		sha256     string
	}{
		{2, 12, "2a2fa6048b420a79694cce26edacc204c236520672a7807e00d078091465134c"},
		{13, 40, "1e6712558f34c9a679b72c8ff791c5eebb5148432a9dcb15aca01a8c6cfb3651"},
		{512, 1024, "1b42934ea936540a84869734af775e071213556d572a4f5357f69d6e60f644b5"},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.rows, tc.cols), func(t *testing.T) {
			spec := DefaultSpec()
			spec.Rows, spec.Cols = tc.rows, tc.cols
			a, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			field, mean := a.smoothField(rng.NewSource(spec.Seed).Split())
			h := sha256.New()
			var b [8]byte
			for _, v := range append(field, mean) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
				t.Errorf("field and mean sha256 %s, want %s", got, tc.sha256)
			}
		})
	}
}

// splitMixGamma is SplitMix64's state increment per draw (rng.Source).
const splitMixGamma = 0x9e3779b97f4a7c15

// TestWhiteDrawsRetryEquivalence forces Norm's retry of a zero first
// uniform, the one case in which a cell draws more than its fixed
// count, at chosen cells: in the first chunk, mid-chunk, at a chunk's
// last and first cells and in the last chunk; at lanes 0, 3 and 7 of a
// vector block, in the first chunk's last full block of eight and in
// its scalar tail, where the chunk has one. It runs with the defect
// class on and off, at pools of one to four workers, on the scalar
// path and on the AVX-512 kernels. SplitMix64 outputs 0 when its
// incremented state is 0, so the start state −(d+1)·gamma makes draw d
// return exactly 0. The chunked draws must write the serial oracle's
// plane bit for bit and leave the source where it does, and the oracle
// must show that the retry fired.
func TestWhiteDrawsRetryEquivalence(t *testing.T) {
	synthPaths(t, testWhiteDrawsRetryEquivalence)
}

func testWhiteDrawsRetryEquivalence(t *testing.T) {
	const waveDraws = 18 // four waves of four parameters, two tilts
	def := DefaultSpec()
	for _, extreme := range []float64{0, def.ExtremeFrac} {
		per := 2 // Norm's two uniforms
		if extreme > 0 {
			per = 3 // and the defect test before them
		}
		for workers := 1; workers <= 4; workers++ {
			spec := def
			spec.Rows, spec.Cols = 37, 24 // 888 cells
			spec.ExtremeFrac = extreme
			spec.Workers = workers
			a, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			n := a.Cells()
			chunk := (n + workers - 1) / workers // the pool's split of n cells
			lastLo := (n - 1) / chunk * chunk
			cells := []struct {
				name string
				cell int
			}{
				{"first-chunk", 1},
				{"mid-chunk", chunk / 2},
				{"chunk-last-cell", chunk - 1},
				{"second-chunk-first-cell", min(chunk, n-1)},
				{"last-chunk", lastLo + (n-lastLo)/2},
				{"last-cell", n - 1},
				{"block-lane-0", 8},
				{"block-lane-3", 8 + 3},
				{"block-lane-7", 8 + 7},
				{"last-full-block", chunk&^7 - 8 + 3},
			}
			if chunk%8 != 0 {
				cells = append(cells, struct {
					name string
					cell int
				}{"scalar-tail", chunk&^7 + 1})
			}
			for _, c := range cells {
				t.Run(fmt.Sprintf("extreme=%g/workers=%d/%s", extreme, workers, c.name), func(t *testing.T) {
					// The cell's first Norm uniform is its last draw but one.
					d := uint64(waveDraws + per*c.cell + per - 2)
					start := -((d + 1) * splitMixGamma)

					ref := rng.NewSource(start)
					clear(a.mismatch)
					a.synthesizeMismatchReference(ref)
					want := append([]float32(nil), a.mismatch...)
					noRetry := rng.NewSource(start)
					noRetry.Skip(uint64(waveDraws + per*n))
					if *ref == *noRetry {
						t.Fatalf("cell %d drew no zero uniform: the retry never fired", c.cell)
					}

					src := rng.NewSource(start)
					clear(a.mismatch)
					a.synthesizeMismatch(src)
					for i, w := range want {
						if math.Float32bits(a.mismatch[i]) != math.Float32bits(w) {
							t.Fatalf("cell %d: mismatch %v, oracle %v (retry at cell %d)", i, a.mismatch[i], w, c.cell)
						}
					}
					if *src != *ref {
						t.Fatal("the chunked draws leave the source elsewhere than the serial draws")
					}
				})
			}
		}
	}
}
