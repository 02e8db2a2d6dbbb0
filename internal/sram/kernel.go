package sram

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"

	"invisiblebits/internal/rng"
)

// Word-parallel capture engine.
//
// A capture burst is, per cell, `captures` races of `bias + sigma*noise
// > 0`. The scalar engine resolved them cell by cell; this kernel
// resolves them 64 cells per machine word:
//
//   - The bias plane splits once per (bias epoch, sigma) into
//     deterministic-one / deterministic-zero word planes (cells whose
//     |bias| exceeds the hard noise bound resolve identically on every
//     race — no draws, their counts are 0 or `races` by inspection) and
//     a packed residue of noisy cells with precomputed per-cell noise
//     coordinates (rng.IdxMul) and draw-space vote thresholds
//     (rng.VoteThreshold / rng.VoteBoundsF32).
//   - Each race runs rng.PackedZigVotes (or rng.PackedBMVotes for v1
//     arrays) over the packed residue, producing one vote bit per cell
//     per word, and ripple-adds the vote words into bit-sliced
//     counters: slice b of word w holds bit b of every cell's running
//     count, so accumulating 64 cells costs a handful of word ops and
//     counts up to MaxCaptures fit in 16 slices.
//   - Races iterate innermost over cache-sized chunks of the packed
//     arrays (kernelChunkWords), so a burst streams the per-cell tables
//     from memory once, not once per race.
//   - After the last race the kernel builds only the output its caller
//     reads (burstOut). Every burst scatters the final race's votes
//     into the data plane next to the deterministic words, and a
//     power-on stops there. A VotePlane burst scatters the sliced
//     counters into the global word domain, which the majority decides
//     from with a sliced compare. Only CaptureVotesInto and BiasMap
//     transpose the counters back to per-cell uint16 counts.
//
// The kernel consumes exactly the counter-derived noise tape
// (norm(base+k, i) for race k, cell i) the serial engines consume, so
// votes, the final data plane and PowerOnCount are bit-identical to
// the test-only CaptureVotesReference / PowerOnReference oracles for
// any worker count — the sram differential and fuzz suites enforce
// this.

// MaxCaptures is the largest capture count a single burst supports: the
// per-cell vote counters are 16-bit, so a burst beyond 65535 captures
// could silently truncate counts (the pre-kernel engine did exactly
// that when narrowing its internal uint32 counters). Larger campaigns
// split into multiple bursts — the noise tape advances per race, so two
// back-to-back bursts draw exactly the noise one big burst would.
const MaxCaptures = 65535

// CaptureCountError reports a capture count the vote counters cannot
// represent. It is a typed error so callers can distinguish "split your
// burst" from parameter validation failures.
type CaptureCountError struct{ Captures int }

func (e *CaptureCountError) Error() string {
	return fmt.Sprintf("sram: %d captures exceed the %d-capture burst limit (16-bit vote counters)",
		e.Captures, MaxCaptures)
}

// kernelChunkWords is the packed-domain chunk the race loop iterates
// within: 256 words = 16384 cells keeps a chunk's working set (idxMul,
// thresholds, draws, votes, slices — ~520 KiB) L2-resident on a
// megabyte-class L2, so a burst reads the per-cell tables from memory
// once per burst instead of once per race, while each packed-kernel
// call is long enough to amortize its gather, dispatch and slow-lane
// pool overhead.
const kernelChunkWords = 256

// capKernel caches the packed capture layout and owns the burst
// scratch. The layout half is valid for one (bias epoch, sigma, noise
// generation) key; the scratch half is reused by every burst, so
// steady-state captures allocate nothing.
type capKernel struct {
	valid bool
	epoch uint64
	sigma float64
	gen   int

	// Global word domain (nw = ceil(n/64) words).
	det1 []uint64 // cells deterministically 1 at this sigma
	det0 []uint64 // cells deterministically 0
	// offs[w] is word w's first noisy cell in the packed residue;
	// offs[nw] is the noisy count.
	offs []uint32
	// Packed noisy-cell residue, ascending cell order, sized to the
	// largest noisy count so far.
	cellIdx []uint32
	idxMul  []uint64
	xt      []float64
	xtLo    []float32
	xtHi    []float32

	// Burst scratch, packed noisy domain.
	votes  []uint64
	slow   []uint64
	draws  []uint64
	last   []uint64 // final race's votes, scattered to the data plane
	slices [16][]uint64
	ctrs   []uint64
	dataW  []uint64  // assembled data plane, global word domain
	counts []uint16  // per-cell counts for callers that discard them
	plane  VotePlane // sliced counts CaptureMajorityInto decides from
	remB   []byte    // retained-contents snapshot for remanent first captures
	// detCounts is the deterministic-cell count plane for detRaces races
	// (0 at noisy and deterministic-zero cells): counts assembly starts
	// as one memcpy instead of a per-cell walk.
	detCounts []uint16
	detRaces  int

	// raceFn is the worker-pool body, created once so steady-state
	// bursts pass an existing closure to pool.Run instead of allocating
	// one per call; burstRaces parameterizes it per burst.
	raceFn     func(lo, hi int)
	burstRaces int
	burstNB    int // count bits this burst needs (bits.Len(races))
}

// ensureKernel (re)builds the packed capture layout for sigma if the
// cached one is stale. Within an epoch (between stress/recovery events)
// every burst at the same temperature reuses it. The build runs on the
// pool in two passes with a serial prefix sum between them: the first
// splits each 64-cell word into its deterministic planes and counts its
// noisy cells, the sum gives each word its offset in the packed arrays,
// and the second fills them there, in ascending cell order. The packed
// arrays hold exactly the noisy cells. They grow when an epoch has more
// noisy cells than they can hold, and shrink to fit when it has fewer
// than a quarter as many, as after a soak, so a carrier does not keep
// its fresh silicon's residue live for the rest of its life. A
// cancelled build leaves the layout invalid.
func (a *Array) ensureKernel(ctx context.Context, sigma float64) error {
	if err := a.ensureBiasPlane(ctx); err != nil {
		return err
	}
	k := &a.kern
	if k.valid && k.epoch == a.biasEpoch && k.sigma == sigma && k.gen == a.spec.NoiseGen {
		return nil
	}
	k.valid = false
	nw := (a.n + 63) / 64
	if cap(k.det1) < nw {
		k.det1 = make([]uint64, nw)
		k.det0 = make([]uint64, nw)
		k.dataW = make([]uint64, nw)
		k.offs = make([]uint32, nw+1)
	}
	k.det1 = k.det1[:nw]
	k.det0 = k.det0[:nw]
	k.dataW = k.dataW[:nw]
	k.offs = k.offs[:nw+1]

	bound := a.pruneBound(sigma)
	plane := a.biasPlane
	if err := a.pool.Run(ctx, nw, 1, func(lo, hi int) {
		splitWords(plane, bound, k.det1[lo:hi], k.det0[lo:hi], k.offs[lo:hi], lo)
	}); err != nil {
		return err
	}
	var nc uint32
	for w, c := range k.offs[:nw] {
		k.offs[w] = nc
		nc += c
	}
	k.offs[nw] = nc

	zig := a.spec.NoiseGen == NoiseGenZiggurat
	refit := func(capacity int) bool { return capacity < int(nc) || int(nc) < capacity/4 }
	if refit(cap(k.cellIdx)) {
		k.cellIdx = make([]uint32, nc)
		k.idxMul = make([]uint64, nc)
		k.xt = make([]float64, nc)
	}
	k.cellIdx = k.cellIdx[:nc]
	k.idxMul = k.idxMul[:nc]
	k.xt = k.xt[:nc]
	k.xtLo, k.xtHi = k.xtLo[:0], k.xtHi[:0]
	if zig {
		if refit(cap(k.xtLo)) {
			k.xtLo = make([]float32, nc)
			k.xtHi = make([]float32, nc)
		}
		k.xtLo = k.xtLo[:nc]
		k.xtHi = k.xtHi[:nc]
	}
	if err := a.pool.Run(ctx, nw, 1, func(lo, hi int) {
		k.packWords(plane, sigma, zig, lo, hi)
	}); err != nil {
		return err
	}

	nwN := (int(nc) + 63) / 64
	if cap(k.votes) < nwN {
		k.votes = make([]uint64, nwN)
		k.slow = make([]uint64, nwN)
		k.last = make([]uint64, nwN)
	}
	k.votes = k.votes[:nwN]
	k.slow = k.slow[:nwN]
	k.last = k.last[:nwN]
	if refit(cap(k.draws)) {
		k.draws = make([]uint64, nc)
	}
	k.draws = k.draws[:nc]

	k.valid = true
	k.epoch = a.biasEpoch
	k.sigma = sigma
	k.gen = a.spec.NoiseGen
	k.detRaces = -1 // det planes changed: count template is stale
	return nil
}

// splitWords splits words [w0, w0+len(det1)) of the bias plane at
// bound: it writes each word's deterministic-one and -zero planes and
// its noisy-cell count. A cell's sides are set without branching: on
// fresh silicon the sign of a deterministic cell is a coin flip, and
// the branchy split ran at half the speed.
func splitWords(plane []float32, bound float64, det1, det0 []uint64, counts []uint32, w0 int) {
	for w := range det1 {
		base := (w0 + w) * 64
		cells := plane[base:min(base+64, len(plane))]
		var d1, d0 uint64
		for j, b := range cells {
			bias := float64(b)
			d1 |= bit(bias > bound) << uint(j)
			d0 |= bit(bias < -bound) << uint(j)
		}
		det1[w], det0[w] = d1, d0
		counts[w] = uint32(len(cells) - bits.OnesCount64(d1|d0))
	}
}

// bit returns 1 for true and 0 for false, compiled without a branch.
func bit(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// packWords fills the packed noisy-cell arrays for words [lo, hi) of
// the split layout, each word's cells from its prefix-sum offset on.
func (k *capKernel) packWords(plane []float32, sigma float64, zig bool, lo, hi int) {
	cellIdx, idxMul, xts, xtLo, xtHi := k.cellIdx, k.idxMul, k.xt, k.xtLo, k.xtHi
	n := len(plane)
	for w := lo; w < hi; w++ {
		base := w * 64
		noisy := ^(k.det1[w] | k.det0[w])
		if lim := n - base; lim < 64 {
			noisy &= 1<<uint(lim) - 1
		}
		p := k.offs[w]
		for ; noisy != 0; noisy &= noisy - 1 {
			i := base + bits.TrailingZeros64(noisy)
			xt := rng.VoteThreshold(float64(plane[i]), sigma)
			cellIdx[p] = uint32(i)
			idxMul[p] = rng.IdxMul(uint64(i))
			xts[p] = xt
			if zig {
				xtLo[p], xtHi[p] = rng.VoteBoundsF32(xt)
			}
			p++
		}
	}
}

// ensureSlices sizes and zeroes the bit-sliced counter planes for a
// burst whose counts need nb bits. The fast ripple path touches five
// planes unconditionally (carries above bit nb-1 never happen — counts
// stay ≤ races < 2^nb — but the stores still need somewhere to land),
// so at least five are always prepared.
func (k *capKernel) ensureSlices(nb int) {
	if nb < 5 {
		nb = 5
	}
	nwN := len(k.votes)
	for b := 0; b < nb; b++ {
		if cap(k.slices[b]) < nwN {
			k.slices[b] = make([]uint64, nwN)
		}
		s := k.slices[b][:nwN]
		for i := range s {
			s[i] = 0
		}
		k.slices[b] = s
	}
}

// scratchCounts returns the kernel-owned per-cell counts buffer for
// callers that derive an output from the counts rather than returning
// them. Valid until the next burst.
func (a *Array) scratchCounts() []uint16 {
	if cap(a.kern.counts) < a.n {
		a.kern.counts = make([]uint16, a.n)
	}
	a.kern.counts = a.kern.counts[:a.n]
	return a.kern.counts
}

// burstOut names the count output a capture burst builds besides the
// data plane, which every burst writes. At most one field is set; a
// burst with neither is a power-on, which reads only the data plane.
type burstOut struct {
	counts []uint16   // per-cell counts, len Cells()
	plane  *VotePlane // bit-sliced counts, sized by the burst
}

// captureBurstInto runs `captures` power-on races at tempC, writing
// each cell's count of 1 readings into out and the final capture into
// the data plane, leaving the array powered. It is the engine behind
// every capture entry point; steady-state calls allocate nothing.
// Counter consumption, remanence handling and the noise tape match
// CaptureVotesReference bit for bit.
func (a *Array) captureBurstInto(ctx context.Context, captures int, tempC float64, out burstOut) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	races := captures
	remFirst := false
	if !a.powered && a.remanent {
		// First capture is the remembered state; no race, no counter.
		a.remanent = false
		remFirst = true
		races--
	}
	var remBytes []byte
	if remFirst {
		// Snapshot the retained contents before the races overwrite them.
		remBytes = a.kern.remSnapshot(a.data)
	}
	if out.plane != nil {
		out.plane.reset(a.n, captures)
	}
	if races > 0 {
		if err := a.runRaces(ctx, races, tempC, out); err != nil {
			a.powered = false
			return err
		}
	} else {
		clear(out.counts)
	}
	if remFirst {
		switch {
		case out.plane != nil:
			out.plane.addBits(remBytes)
		case out.counts != nil:
			for byteIdx, bv := range remBytes {
				base := byteIdx * 8
				for ; bv != 0; bv &= bv - 1 {
					out.counts[base+bits.TrailingZeros8(bv)]++
				}
			}
		}
	}
	a.powered = true
	return nil
}

// remSnapshot copies the retained data plane into kernel-owned scratch.
func (k *capKernel) remSnapshot(data []byte) []byte {
	if cap(k.remB) < len(data) {
		k.remB = make([]byte, len(data))
	}
	k.remB = k.remB[:len(data)]
	copy(k.remB, data)
	return k.remB
}

// runRaces executes `races` fresh power-on races and builds out from
// the sliced counters; the last race becomes the data plane. A plane
// in out must already be reset to zero for this burst.
func (a *Array) runRaces(ctx context.Context, races int, tempC float64, out burstOut) error {
	sigma := a.noiseSigmaAt(tempC)
	if err := a.ensureKernel(ctx, sigma); err != nil {
		return err
	}
	k := &a.kern
	nc := len(k.cellIdx)
	nwN := (nc + 63) / 64
	nb := bits.Len(uint(races)) // counts ≤ races < 1<<nb
	k.ensureSlices(nb)
	if cap(k.ctrs) < races {
		k.ctrs = make([]uint64, races)
	}
	k.ctrs = k.ctrs[:races]
	base := a.powerOns
	a.powerOns += uint64(races)
	for r := 0; r < races; r++ {
		k.ctrs[r] = a.noise.CtrState(base + uint64(r))
	}

	if nwN > 0 {
		k.burstRaces = races
		k.burstNB = nb
		if k.raceFn == nil {
			k.raceFn = a.raceChunks
		}
		if err := a.pool.Run(ctx, nwN, 1, k.raceFn); err != nil {
			return err
		}
	}

	copy(k.dataW, k.det1)
	if out.counts != nil {
		// The transpose scatters the data plane as it goes.
		k.emitCounts(races, out.counts)
	} else {
		if out.plane != nil {
			k.emitPlane(races, out.plane)
		}
		k.emitData()
	}
	packWordsToBytes(k.dataW, a.data)
	return nil
}

// emitData scatters the final race's votes of the noisy cells into the
// data plane: one store per cell that read 1.
func (k *capKernel) emitData() {
	for pw, lv := range k.last {
		idx := k.cellIdx[pw*64:]
		for ; lv != 0; lv &= lv - 1 {
			ci := idx[bits.TrailingZeros64(lv)]
			k.dataW[ci>>6] |= 1 << (ci & 63)
		}
	}
}

// emitPlane writes the burst's counts into p, which is zeroed and
// sized for at least races: a deterministic-one cell counts every race,
// so slice b starts as the det1 plane wherever bit b of races is set,
// and each noisy cell's set count bits scatter from the packed sliced
// counters to the cell's global word.
func (k *capKernel) emitPlane(races int, p *VotePlane) {
	for b := 0; b < bits.Len(uint(races)); b++ {
		if races>>uint(b)&1 != 0 {
			copy(p.slices[b], k.det1)
		}
		dst := p.slices[b]
		for pw, sw := range k.slices[b] {
			idx := k.cellIdx[pw*64:]
			for ; sw != 0; sw &= sw - 1 {
				ci := idx[bits.TrailingZeros64(sw)]
				dst[ci>>6] |= 1 << (ci & 63)
			}
		}
	}
}

// emitCounts fills out with the per-cell counts and the data plane.
// Deterministic cells resolve identically on every race, so their count
// plane is a pure function of (layout, races): build it once per races
// value and memcpy it per burst — steady-state decode loops reuse one
// races count, so the per-cell walk amortizes to a copy. Noisy cells
// then transpose out of the sliced counters and scatter over the
// template.
func (k *capKernel) emitCounts(races int, out []uint16) {
	nc := len(k.cellIdx)
	nwN := len(k.last)
	nb := bits.Len(uint(races))
	if k.detRaces != races {
		if cap(k.detCounts) < len(out) {
			k.detCounts = make([]uint16, len(out))
		}
		k.detCounts = k.detCounts[:len(out)]
		for i := range k.detCounts {
			k.detCounts[i] = 0
		}
		rc := uint16(races)
		for w, d1 := range k.det1 {
			wbase := w * 64
			for m := d1; m != 0; m &= m - 1 {
				k.detCounts[wbase+bits.TrailingZeros64(m)] = rc
			}
		}
		k.detRaces = races
	}
	copy(out, k.detCounts)
	for pw := 0; pw < nwN; pw++ {
		lv := k.last[pw]
		cbase := pw * 64
		lim := nc - cbase
		if lim > 64 {
			lim = 64
		}
		var sl [16]uint64
		for b := 0; b < nb; b++ {
			sl[b] = k.slices[b][pw]
		}
		idx := k.cellIdx[cbase : cbase+lim]
		if nb <= 5 {
			// Straight-line transpose for every realistic burst
			// (≤ 31 captures): unfilled slice words are zero, so
			// reading all five is safe and branch-free.
			s0, s1, s2, s3, s4 := sl[0], sl[1], sl[2], sl[3], sl[4]
			for j := 0; j < lim; j++ {
				jj := uint(j)
				cnt := s0>>jj&1 | (s1>>jj&1)<<1 | (s2>>jj&1)<<2 |
					(s3>>jj&1)<<3 | (s4>>jj&1)<<4
				ci := idx[j]
				out[ci] = uint16(cnt)
				k.dataW[ci>>6] |= (lv >> jj & 1) << (ci & 63)
			}
			continue
		}
		for j := 0; j < lim; j++ {
			var cnt uint64
			for b := nb - 1; b >= 0; b-- {
				cnt = cnt<<1 | sl[b]>>uint(j)&1
			}
			ci := idx[j]
			out[ci] = uint16(cnt)
			k.dataW[ci>>6] |= (lv >> uint(j) & 1) << (ci & 63)
		}
	}
}

// raceChunks is the burst worker body: it runs every race of the
// current burst over packed words [lo, hi), chunked so each chunk's
// tables stay cache-resident across the whole burst. Chunks are
// independent (counter-derived noise), so any sharding is exact.
func (a *Array) raceChunks(lo, hi int) {
	k := &a.kern
	nc := len(k.cellIdx)
	races := k.burstRaces
	nb := k.burstNB
	zig := k.gen == NoiseGenZiggurat
	for clo := lo; clo < hi; clo += kernelChunkWords {
		chi := clo + kernelChunkWords
		if chi > hi {
			chi = hi
		}
		cellLo := clo * 64
		cellHi := chi * 64
		if cellHi > nc {
			cellHi = nc
		}
		im := k.idxMul[cellLo:cellHi]
		xts := k.xt[cellLo:cellHi]
		votes := k.votes[clo:chi]
		for r := 0; r < races; r++ {
			if zig {
				rng.PackedZigVotes(k.ctrs[r], im, xts,
					k.xtLo[cellLo:cellHi], k.xtHi[cellLo:cellHi],
					votes, k.slow[clo:chi], k.draws[cellLo:cellHi])
			} else {
				rng.PackedBMVotes(k.ctrs[r], im, xts, votes)
			}
			// Ripple-add this race's vote bits into the sliced
			// counters. The carry-chain length is data-dependent and
			// unpredictable, so the common depth (two levels) runs
			// branch-free; carries past bit 1 (~1 word in 16) take the
			// guarded tail. Bursts needing more than five count bits
			// (> 31 captures) use the generic ripple.
			if nb <= 5 {
				s0, s1, s2, s3, s4 := k.slices[0], k.slices[1], k.slices[2], k.slices[3], k.slices[4]
				for w := 0; w < len(votes); w++ {
					i := clo + w
					v := votes[w]
					t := s0[i]
					s0[i] = t ^ v
					v &= t
					t = s1[i]
					s1[i] = t ^ v
					v &= t
					if v != 0 {
						t = s2[i]
						s2[i] = t ^ v
						v &= t
						t = s3[i]
						s3[i] = t ^ v
						v &= t
						t = s4[i]
						s4[i] = t ^ v
					}
				}
			} else {
				for w := 0; w < len(votes); w++ {
					carry := votes[w]
					for b := 0; carry != 0; b++ {
						sb := k.slices[b]
						s := sb[clo+w]
						sb[clo+w] = s ^ carry
						carry &= s
					}
				}
			}
		}
		copy(k.last[clo:chi], votes)
	}
}

// packWordsToBytes writes the little-endian word plane into the
// bit-packed byte plane (bit i of the array is data[i/8]>>(i%8), which
// is exactly the little-endian byte order of 64-bit words).
func packWordsToBytes(words []uint64, data []byte) {
	i := 0
	for ; i+8 <= len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], words[i>>3])
	}
	if i < len(data) {
		w := words[i>>3]
		for ; i < len(data); i++ {
			data[i] = byte(w >> uint((i&7)*8))
		}
	}
}
