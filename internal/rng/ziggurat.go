package rng

import "math"

// The noise plane: a ziggurat Gaussian sampler for the capture hot path.
//
// The Box–Muller transform behind Source.Norm costs two transcendentals
// (log, cos) plus a square root per draw — ~85% of the per-cell capture
// budget. The ziggurat method replaces that with one 64-bit draw, two
// table lookups, and a compare on the common path; the slow paths (edge
// of a layer, the tail beyond r ≈ 3.44) fall back to explicit density
// evaluation and are taken a few percent of the time.
//
// # Truncation at ±8σ
//
// NormZiggurat is truncated: it never returns a value with |x| >
// NormZigguratBound (8). The non-tail layers are geometrically bounded
// by x[0] = v/φ(r) ≈ 3.72; the tail sampler rejects the (astronomically
// rare) excursions beyond 8. P(|N(0,1)| > 8) ≈ 1.2e-15, i.e. one draw
// in ~8e14 — for the simulator's thermal noise (σ ≈ 1.2 mV) that is a
// once-per-geological-epoch event with no physical meaning, while the
// hard bound is what makes deterministic-cell pruning in the SRAM
// capture engine *exact*: a cell whose decision variable exceeds
// 8σ·sigma resolves identically on every race, so its noise draws can
// be skipped without changing a single bit.
const NormZigguratBound = 8.0

// 128 layers with the canonical Marsaglia–Tsang base point: r is the
// start of the tail and v the common layer area for the unnormalized
// density exp(-x²/2).
const (
	zigLayers = 128
	zigR      = 3.442619855899
	zigV      = 9.91256303526217e-3
)

// zigX[i] is the right edge of layer i (zigX[0] = v/φ(r) is the base
// layer's pseudo-width, zigX[1] = r, decreasing to zigX[128] = 0);
// zigF[i] = exp(-zigX[i]²/2) is the density at that edge.
var (
	zigX [zigLayers + 1]float64
	zigF [zigLayers + 1]float64
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	zigX[1] = zigR
	zigF[1] = f(zigR)
	zigX[0] = zigV / zigF[1]
	zigF[0] = 1 // unused: the base layer accepts geometrically or tails
	for i := 1; i < zigLayers; i++ {
		// Each layer has area v: the next edge satisfies
		// φ(x[i+1]) = φ(x[i]) + v/x[i].
		fNext := zigF[i] + zigV/zigX[i]
		if fNext >= 1 {
			zigX[i+1] = 0
			zigF[i+1] = 1
			continue
		}
		zigX[i+1] = math.Sqrt(-2 * math.Log(fNext))
		zigF[i+1] = fNext
	}
	initVoteKernelTables()
}

// NormZiggurat returns a standard-normal variate truncated at
// ±NormZigguratBound using the ziggurat method. It is a faster
// alternative to Norm with a different (deterministic) mapping from the
// underlying bit stream; the SRAM thermal-noise plane draws from it.
func (s *Source) NormZiggurat() float64 {
	for {
		u := s.Uint64()
		i := u & (zigLayers - 1)                // layer index, bits 0..6
		neg := u&zigLayers != 0                 // sign, bit 7
		m := float64(u>>11) * (1.0 / (1 << 53)) // uniform [0,1), bits 11..63
		x := m * zigX[i]
		if x < zigX[i+1] {
			// Entirely inside the next layer's footprint: under the
			// density at every height of this layer.
			if neg {
				return -x
			}
			return x
		}
		if i == 0 {
			// Base layer, beyond r: sample the exact tail by Marsaglia's
			// exponential rejection, truncated at the bound.
			for {
				ex := -math.Log(s.Float64()) / zigR
				ey := -math.Log(s.Float64())
				if ey+ey > ex*ex && zigR+ex <= NormZigguratBound {
					if neg {
						return -(zigR + ex)
					}
					return zigR + ex
				}
			}
		}
		// Edge of layer i: accept against the true density.
		if zigF[i]+s.Float64()*(zigF[i+1]-zigF[i]) < math.Exp(-0.5*x*x) {
			if neg {
				return -x
			}
			return x
		}
	}
}

// NormZig returns the ziggurat (±8σ-truncated) standard-normal variate
// at (counter, index) — the first NormZiggurat draw of At(counter,
// index), without the allocation. It is a pure function of (key,
// counter, index), so any evaluation order or sharding yields identical
// noise planes.
func (s Stream) NormZig(counter, index uint64) float64 {
	src := Source{state: s.stateAt(counter, index)}
	return src.NormZiggurat()
}
