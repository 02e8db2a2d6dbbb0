package rng

import (
	"math"
	"math/bits"
	"sync"
)

// Word-parallel vote kernel: the SRAM capture engine's innermost loop.
//
// A power-on race asks, for every noisy cell i, whether
//
//	bias[i] + sigma*norm(counter, i) > 0
//
// The capture kernel hoists everything it can out of that per-draw
// expression:
//
//   - The counter half of the coordinate hash (Stream.CtrState) is
//     computed once per race, not once per draw.
//   - The float predicate is precomputed into a per-cell draw-space
//     threshold xt (VoteThreshold): because fl(bias + fl(sigma*x)) is
//     monotone non-decreasing in x (sigma > 0, and rounding is
//     monotone), the predicate is exactly `x >= xt` for every
//     representable x — so the race compares the raw variate against
//     one precomputed double instead of re-evaluating the bias/sigma
//     arithmetic 25 times per cell.
//   - The hot pass classifies each draw in float32 with conservative
//     margins: one gathered 64-bit table entry per draw packs the
//     layer's width and accept bound, and per-cell float32 vote bounds
//     (VoteBoundsF32) bracket the exact threshold. A draw is resolved
//     in the hot pass only when the float32 arithmetic PROVES the
//     exact-float64 outcome — certainly on the ziggurat common path
//     AND certainly on one side of the threshold. Everything else
//     (common-path rejects plus a ~1e-5 sliver of near-threshold
//     draws) is marked slow and replayed through the canonical
//     sampler, so votes are bit-identical to NormZig per cell while
//     the hot pass pays one gather and float32 math per draw.
//   - The slow-path layer-edge test consumes its uniform draw either
//     way, so its density comparison can be short-circuited: per-layer
//     subrange bounds on exp(-x²/2) resolve most edge draws by an
//     interval compare, calling math.Exp only when the drawn height
//     lands inside the bounds gap (~1/zigEdgeSub of edge draws).
//
// Every shortcut above is an exact algebraic rewrite of the canonical
// samplers — the kernel's votes are bit-identical to evaluating
// NormZig/Norm per cell, which the sram package's differential fuzz and
// property suites enforce against the retained scalar reference engine.

// voteBandAbs is the absolute half-width of the float32 classifier's
// ambiguity band. The float32 approximation of a common-path variate is
// within ~7e-7 of the exact float64 value (three round-to-nearest-24-bit
// steps over |x| <= zigX[0]); 2^-18 ≈ 3.8e-6 leaves a 5x margin, and
// draws inside the band resolve through the exact scalar path.
const voteBandAbs = 1.0 / (1 << 18)

// zigEdgeSub is the number of exp-bound subranges per layer for the
// slow-path edge test. Larger values shrink the fraction of edge draws
// that fall through to math.Exp (~1/zigEdgeSub) at the cost of table
// size (zigLayers * zigEdgeSub * 16 bytes).
const zigEdgeSub = 8

var (
	// zigXScaled[i] = zigX[i] * 2^-53: because float64(m) is exact for
	// m < 2^53 and scaling by a power of two is exact, fl(float64(m) *
	// zigXScaled[i]) equals the canonical fl(fl(float64(m)*2^-53) *
	// zigX[i]) for every mantissa m — one multiply instead of two.
	zigXScaled [zigLayers]float64
	// zigAccept[i] is the smallest 53-bit mantissa REJECTED by layer i:
	// the common path accepts iff (u>>11) < zigAccept[i]. Derived by
	// exact binary search over the (monotone) accept predicate, so the
	// integer compare reproduces the float compare bit for bit.
	zigAccept [zigLayers]uint64
	// zigClassF32[i] packs the hot pass's per-layer float32 classifier:
	// low 32 bits hold zigXScaled[i] rounded to float32 (the lane's
	// variate approximation multiplier), high 32 bits a conservative
	// accept bound — float32(m) below it PROVES m < zigAccept[i].
	zigClassF32 [zigLayers]uint64
	// Slow-path edge-test exp bounds: for layer i and mantissa subrange
	// s, the canonical density exp(-x²/2) over that subrange lies in
	// [zigEdgeLo[i][s], zigEdgeHi[i][s]] (widened past any math.Exp
	// rounding wiggle). A drawn height below Lo certainly accepts,
	// at/above Hi certainly rejects; only the gap evaluates math.Exp.
	zigEdgeD     [zigLayers]float64
	zigEdgeScale [zigLayers]float64
	// zigEdgeLoHi interleaves the bounds — entry ((i*zigEdgeSub+s)*2)
	// is Lo, +1 is Hi — so one cache line serves both compares, and the
	// vector edge resolver reaches them with a single gathered index.
	zigEdgeLoHi [zigLayers * zigEdgeSub * 2]float64
	// zigEdgePack lays the per-layer edge-resolution constants out at a
	// 64-byte stride (one cache line per layer) for the vector edge
	// resolver's gathers: qwords i*8+0..4 hold zigXScaled, zigAccept,
	// zigF, zigEdgeD and zigEdgeScale bit patterns.
	zigEdgePack [zigLayers * 8]uint64
)

// f32Down rounds v to the largest float32 not exceeding it.
func f32Down(v float64) float32 {
	f := float32(v)
	if float64(f) > v {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// f32Up rounds v to the smallest float32 not below it.
func f32Up(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// VoteBoundsF32 brackets a cell's exact draw-space threshold for the
// float32 hot-pass classifier: a float32 variate approximation at or
// above hi certainly votes 1, strictly below lo certainly votes 0, and
// anything between resolves through the exact float64 path. The band
// covers the classifier's worst-case approximation error with a wide
// margin, so the bracketing is sound for every draw.
func VoteBoundsF32(xt float64) (lo, hi float32) {
	return f32Down(xt - voteBandAbs), f32Up(xt + voteBandAbs)
}

// edgeExpAt evaluates the canonical edge-test density exp(-x²/2) at
// mantissa m of layer i, with the exact expression shape (and hence
// rounding) of the canonical sampler.
func edgeExpAt(i int, m uint64) float64 {
	mf := float64(m) * (1.0 / (1 << 53))
	x := mf * zigX[i]
	return math.Exp(-0.5 * x * x)
}

// initVoteKernelTables derives the integer accept thresholds, float32
// classifier entries and edge-test exp bounds from the ziggurat tables.
// Called from ziggurat.go's init after zigX is built — it must NOT be
// an init() of its own, because Go orders package inits by file name
// and this file sorts before ziggurat.go.
func initVoteKernelTables() {
	for i := 0; i < zigLayers; i++ {
		zigXScaled[i] = zigX[i] * (1.0 / (1 << 53))
		// accept(m) := fl(float64(m)*zigXScaled[i]) < zigX[i+1], monotone
		// non-increasing in m; find the smallest rejecting mantissa.
		accept := func(m uint64) bool {
			return float64(m)*zigXScaled[i] < zigX[i+1]
		}
		lo, hi := uint64(0), uint64(1)<<53 // accept region is [0, ans)
		if accept(hi) {
			// Cannot happen (m = 2^53 maps to x = zigX[i] >= zigX[i+1]),
			// but keep the search total.
			lo = hi
		}
		for lo < hi {
			mid := lo + (hi-lo)/2
			if accept(mid) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		zigAccept[i] = lo

		// float32 classifier entry: the accept bound shrinks zigAccept by
		// 2^-22 relative before rounding down, which dominates float32(m)'s
		// 2^-24 conversion error — float32(m) < bound implies m < zigAccept.
		xsF := math.Float32bits(float32(zigXScaled[i]))
		accF := math.Float32bits(f32Down(float64(zigAccept[i]) * (1 - 1.0/(1<<22))))
		zigClassF32[i] = uint64(xsF) | uint64(accF)<<32

		// Edge-test exp bounds over the rejected-mantissa range
		// [zigAccept[i], 2^53), split into zigEdgeSub subranges. Each
		// subrange is widened so the float subrange-index computation can
		// never select a table entry whose bounds exclude the true m, and
		// the exp endpoints are widened past math.Exp's rounding wiggle
		// (≤ a few ulps) so the bounds hold despite non-monotonicity.
		zigEdgeD[i] = zigF[i+1] - zigF[i]
		acc := zigAccept[i]
		span := uint64(1)<<53 - acc
		if span == 0 {
			zigEdgePack[i*8+0] = math.Float64bits(zigXScaled[i])
			zigEdgePack[i*8+1] = zigAccept[i]
			continue // layer never reaches the edge test
		}
		zigEdgeScale[i] = float64(zigEdgeSub) / float64(span)
		zigEdgePack[i*8+0] = math.Float64bits(zigXScaled[i])
		zigEdgePack[i*8+1] = zigAccept[i]
		zigEdgePack[i*8+2] = math.Float64bits(zigF[i])
		zigEdgePack[i*8+3] = math.Float64bits(zigEdgeD[i])
		zigEdgePack[i*8+4] = math.Float64bits(zigEdgeScale[i])
		slack := span/(1<<16) + 2
		for s := uint64(0); s < zigEdgeSub; s++ {
			mA := acc + s*(span/zigEdgeSub)
			mB := acc + (s+1)*(span/zigEdgeSub)
			if s == zigEdgeSub-1 {
				mB = uint64(1)<<53 - 1
			}
			if mA >= acc+slack {
				mA -= slack
			} else {
				mA = acc
			}
			if mB <= uint64(1)<<53-1-slack {
				mB += slack
			} else {
				mB = uint64(1)<<53 - 1
			}
			// x grows with m, so exp(-x²/2) falls: hi at mA, lo at mB.
			hiR := edgeExpAt(i, mA)
			loR := edgeExpAt(i, mB)
			if loR > hiR {
				loR, hiR = hiR, loR
			}
			zigEdgeLoHi[(uint64(i)*zigEdgeSub+s)*2] = loR * (1 - 1.0/(1<<46))
			zigEdgeLoHi[(uint64(i)*zigEdgeSub+s)*2+1] = hiR * (1 + 1.0/(1<<46))
		}
	}
}

// VoteThreshold returns the smallest float64 x for which
// bias + sigma*x > 0, i.e. the draw-space decision threshold of one
// cell's power-on race: the race votes 1 exactly when the thermal-noise
// variate is >= the returned value. The predicate is evaluated with the
// same expression shape as the capture engines, and monotonicity in x
// makes the threshold form exactly equivalent — not approximately.
// Returns -Inf when every draw votes 1 and +Inf when none does.
func VoteThreshold(bias, sigma float64) float64 {
	if !(sigma > 0) {
		// Degenerate noise: the predicate no longer depends on x.
		if bias > 0 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	x := -bias / sigma // within a couple of ulps of the exact boundary
	if math.IsNaN(x) {
		x = 0
	}
	const maxWalk = 8
	if bias+sigma*x > 0 {
		for i := 0; i < maxWalk; i++ {
			prev := math.Nextafter(x, math.Inf(-1))
			if !(bias+sigma*prev > 0) {
				return x
			}
			x = prev
		}
	} else {
		for i := 0; i < maxWalk; i++ {
			x = math.Nextafter(x, math.Inf(1))
			if bias+sigma*x > 0 {
				return x
			}
		}
	}
	// The estimate was further off than a few ulps (extreme
	// bias/sigma ratios): fall back to an exact binary search over the
	// total order of float64.
	return voteThresholdSearch(bias, sigma)
}

// ordKey maps float64 to uint64 preserving numeric order (negative
// floats reverse their bit order; the sign bit flips positives above
// them). NaNs map outside the [-Inf, +Inf] key range.
func ordKey(x float64) uint64 {
	u := math.Float64bits(x)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// ordFloat is the inverse of ordKey.
func ordFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// voteThresholdSearch finds the smallest x with bias + sigma*x > 0 by
// binary search over ordered float64 keys (the predicate is monotone in
// x, hence in the key order). sigma > 0, so pred(-Inf) is false and
// pred(+Inf) is true: the answer always exists in (-Inf, +Inf].
func voteThresholdSearch(bias, sigma float64) float64 {
	lo, hi := ordKey(math.Inf(-1)), ordKey(math.Inf(1))
	for lo < hi {
		mid := lo + (hi-lo)/2
		if bias+sigma*ordFloat(mid) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return ordFloat(lo)
}

// zigSlowVoteFromU resolves a lane the hot pass could not: it replays
// the canonical NormZiggurat loop with the lane's first raw draw
// already in hand (the hot pass saves every lane's u), resuming the
// tape directly after that draw instead of re-deriving it. The control
// flow — including which draws each rejection consumes — transcribes
// NormZiggurat line for line, so the variate and therefore the vote are
// bit-identical to the canonical sampler; the only non-literal step is
// the edge test, whose density compare goes through the precomputed
// exp bounds (same boolean, usually without math.Exp).
func zigSlowVoteFromU(state, u uint64, xt float64) bool {
	src := Source{state: state + weylGamma} // tape positioned after u
	for {
		i := u & (zigLayers - 1)
		neg := u&zigLayers != 0
		mi := u >> 11
		m := float64(mi) * (1.0 / (1 << 53))
		x := m * zigX[i]
		if x < zigX[i+1] {
			if neg {
				x = -x
			}
			return x >= xt
		}
		if i == 0 {
			for {
				ex := -math.Log(src.Float64()) / zigR
				ey := -math.Log(src.Float64())
				if ey+ey > ex*ex && zigR+ex <= NormZigguratBound {
					x = zigR + ex
					if neg {
						x = -x
					}
					return x >= xt
				}
			}
		}
		// Edge of layer i: the height draw is consumed unconditionally,
		// so the density compare can short-circuit through the interval
		// bounds without touching the tape.
		h := zigF[i] + src.Float64()*zigEdgeD[i]
		s := int(float64(mi-zigAccept[i]) * zigEdgeScale[i])
		if s >= zigEdgeSub {
			s = zigEdgeSub - 1
		}
		ok := h < zigEdgeLoHi[(i*zigEdgeSub+uint64(s))*2]
		if !ok && h < zigEdgeLoHi[(i*zigEdgeSub+uint64(s))*2+1] {
			ok = h < math.Exp(-0.5*x*x)
		}
		if ok {
			if neg {
				x = -x
			}
			return x >= xt
		}
		u = src.Uint64()
	}
}

// IdxMul returns the cell-index pre-multiplication the packed kernels
// consume: the Source state at (counter, index) is
// mix64(CtrState(counter) ^ IdxMul(index)). Precomputing it per cell
// (once per bias epoch) removes a multiply from every draw.
func IdxMul(index uint64) uint64 { return index * idxPrime }

// PackedZigVotes resolves one power-on race for n packed noisy cells
// against the ziggurat noise plane. The capture engine packs the
// array's noisy cells contiguously (once per bias epoch): idxMul[j]
// holds IdxMul(cellIndex[j]), xt[j] the cell's VoteThreshold, and
// xtLo/xtHi its float32 bracket (VoteBoundsF32). Bit j of votes[j/64]
// is set iff packed cell j votes 1 on this race — bit-identical to
// evaluating NormZig(counter, cellIndex[j]) per cell.
//
// slow is caller-provided scratch with the same length as votes; its
// contents on return are the mask of draws the hot pass could not
// prove (common-path rejects plus near-threshold float32 ties; useful
// to tests, otherwise scratch). draws is per-lane scratch (len >= n)
// holding each cell's raw 64-bit draw, which lets the slow-lane
// resolver resume the canonical tape without re-hashing.
//
// On amd64 with AVX-512 the hot pass runs 8 lanes per instruction
// (vpmullq hash chains, one gathered classifier word, float32
// compares); slow lanes and the tail word always resolve through the
// scalar canonical sampler, so every reachable draw path is exercised
// on every host.
func PackedZigVotes(ctrState uint64, idxMul []uint64, xt []float64, xtLo, xtHi []float32, votes, slow, draws []uint64) {
	n := len(idxMul)
	if n == 0 {
		return
	}
	nWords := n / 64
	if haveAVX512 && nWords > 0 {
		packedZigVotesAVX512(ctrState, &idxMul[0], uint64(nWords),
			&zigClassF32[0], &xtLo[0], &xtHi[0], &votes[0], &slow[0], &draws[0])
	} else {
		packedZigVotesGo(ctrState, idxMul[:nWords*64], xtLo, xtHi, votes, slow, draws)
	}
	if tail := n - nWords*64; tail != 0 {
		packedZigVotesTail(ctrState, idxMul, xtLo, xtHi, votes, slow, draws, nWords*64, tail)
	}
	fixSlowLanes(ctrState, idxMul, xt, votes, slow, draws)
}

// packedZigVotesGo is the portable hot pass: branch- and call-free per
// lane (a call here would spill every live value to the stack), with
// unproven lanes only *marked* — one SETcc into a mask — and resolved
// later by fixSlowLanes. The float32 arithmetic mirrors the vector
// pass operation for operation (convert, multiply, compare are all
// round-to-nearest IEEE float32), so both passes emit identical masks.
func packedZigVotesGo(ctrState uint64, idxMul []uint64, xtLo, xtHi []float32, votes, slow, draws []uint64) {
	for w := 0; w*64 < len(idxMul); w++ {
		base := w * 64
		im := idxMul[base : base+64 : base+64]
		lo := xtLo[base : base+64 : base+64]
		hi := xtHi[base : base+64 : base+64]
		db := draws[base : base+64 : base+64]
		var vote, sl uint64
		for j := 0; j < 64; j++ {
			st := mix64(ctrState ^ im[j])
			z := st + weylGamma
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			u := z ^ (z >> 31)
			db[j] = u
			e := zigClassF32[u&(zigLayers-1)]
			mf := float32(u >> 11)
			// Branchless sign: the variate is >= 0, so applying the draw's
			// sign (bit 7) is ORing it into the float32 sign bit.
			ys := math.Float32frombits(math.Float32bits(mf*math.Float32frombits(uint32(e))) |
				uint32(u&zigLayers)<<24)
			var fast, vt, vf uint64
			if mf < math.Float32frombits(uint32(e>>32)) {
				fast = 1
			}
			if ys >= hi[j] {
				vt = 1
			}
			if ys < lo[j] {
				vf = 1
			}
			vote |= vt << uint(j)
			sl |= (fast&(vt|vf) ^ 1) << uint(j)
		}
		votes[w] = vote
		slow[w] = sl
	}
}

// packedZigVotesTail handles the final partial word (< 64 lanes).
func packedZigVotesTail(ctrState uint64, idxMul []uint64, xtLo, xtHi []float32, votes, slow, draws []uint64, base, tail int) {
	var vote, sl uint64
	for j := 0; j < tail; j++ {
		st := mix64(ctrState ^ idxMul[base+j])
		z := st + weylGamma
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		u := z ^ (z >> 31)
		draws[base+j] = u
		e := zigClassF32[u&(zigLayers-1)]
		mf := float32(u >> 11)
		ys := math.Float32frombits(math.Float32bits(mf*math.Float32frombits(uint32(e))) |
			uint32(u&zigLayers)<<24)
		var fast, vt, vf uint64
		if mf < math.Float32frombits(uint32(e>>32)) {
			fast = 1
		}
		if ys >= xtHi[base+j] {
			vt = 1
		}
		if ys < xtLo[base+j] {
			vf = 1
		}
		vote |= vt << uint(j)
		sl |= (fast&(vt|vf) ^ 1) << uint(j)
	}
	votes[base/64] = vote
	slow[base/64] = sl
}

// edgeScratch holds the dense edge resolver's per-call compressed-lane
// buffers; pooled so steady-state captures allocate nothing.
type edgeScratch struct {
	pos  []uint32
	res  []uint8
	vote []uint8
}

var edgeScratchPool = sync.Pool{New: func() any { return new(edgeScratch) }}

// fixSlowLanes redoes the lanes the hot pass could not prove (a few
// percent): their speculative fast-path votes are garbage, so clear
// and recompute exactly. On AVX-512 hosts the slow lanes are first
// compressed into a dense list and run through the vector edge
// resolver, which settles most of them (round-1 accepts, bounded edge
// accepts/rejects, and the rejects' second draw) with exact float64
// arithmetic; only the residue — tail draws, exp-bound gaps, twice-
// rejected draws — replays the canonical sampler per lane.
func fixSlowLanes(ctrState uint64, idxMul []uint64, xt []float64, votes, slow, draws []uint64) {
	nw := (len(idxMul) + 63) / 64
	if !haveAVX512 {
		for w := 0; w < nw; w++ {
			sm := slow[w]
			if sm == 0 {
				continue
			}
			v := votes[w] &^ sm
			base := w * 64
			for m := sm; m != 0; m &= m - 1 {
				j := base + bits.TrailingZeros64(m)
				st := mix64(ctrState ^ idxMul[j])
				if zigSlowVoteFromU(st, draws[j], xt[j]) {
					v |= 1 << uint(j-base)
				}
			}
			votes[w] = v
		}
		return
	}

	es := edgeScratchPool.Get().(*edgeScratch)
	if cap(es.pos) < len(idxMul)+8 {
		es.pos = make([]uint32, len(idxMul)+8)
		es.res = make([]uint8, len(idxMul)/8+1)
		es.vote = make([]uint8, len(idxMul)/8+1)
	}
	pos := es.pos
	nc := 0
	for w := 0; w < nw; w++ {
		sm := slow[w]
		if sm == 0 {
			continue
		}
		votes[w] &^= sm
		base := uint32(w * 64)
		for m := sm; m != 0; m &= m - 1 {
			pos[nc] = base + uint32(bits.TrailingZeros64(m))
			nc++
		}
	}
	if nc == 0 {
		edgeScratchPool.Put(es)
		return
	}
	// Pad the trailing partial group with lane 0 so every slow lane
	// rides the vector resolver: duplicate lanes recompute the same
	// draw and apply with idempotent ORs, which is cheaper than a
	// scalar replay of up to seven tail lanes per call.
	ng := (nc + 7) / 8
	for k := nc; k < ng*8; k++ {
		pos[k] = pos[0]
	}
	packedZigEdgeAVX512(ctrState, &pos[0], uint64(ng), &idxMul[0], &draws[0],
		&xt[0], &zigEdgePack[0], &zigEdgeLoHi[0], &es.res[0], &es.vote[0])
	// Branchless apply for the resolved lanes (the bulk): OR in
	// resolved&vote per lane — per-race slow patterns are cold, so a
	// predicated write beats a data-dependent branch by a wide margin.
	for k := 0; k < ng*8; k++ {
		j := pos[k]
		rv := uint64(es.res[k>>3]&es.vote[k>>3]) >> (uint(k) & 7) & 1
		votes[j>>6] |= rv << (j & 63)
	}
	// Residue: unresolved lanes (base-layer tails, exp-bound gaps,
	// twice-rejected draws) replay the canonical sampler. Padded
	// duplicates of lane 0 may reappear here; the replay is pure and
	// the vote write idempotent, so they cost a few cycles and change
	// nothing.
	for b := 0; b < ng; b++ {
		for um := ^es.res[b]; um != 0; um &= um - 1 {
			k := b*8 + bits.TrailingZeros8(um)
			j := int(pos[k])
			st := mix64(ctrState ^ idxMul[j])
			if zigSlowVoteFromU(st, draws[j], xt[j]) {
				votes[j>>6] |= 1 << uint(j&63)
			}
		}
	}
	edgeScratchPool.Put(es)
}
