package sram

import (
	"context"
	"fmt"
	"math"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/rng"
)

// Test-only oracles. This file freezes the two earlier generations of
// the capture and aging engines, kept to be compared against, never
// shipped:
//
//   - the pre-overhaul (BENCH_3-era) reference: one serial pass, no
//     deterministic-cell pruning, noise drawn for every cell on every
//     race, and per-cell analog.GrowShift aging with its per-cell Rate
//     and inverse math.Pow;
//   - the pre-kernel scalar engine (BENCH_4-era): pruned, bias hoisted,
//     one draw resolved at a time.
//
// The equivalence and fuzz suites require the kernel to match both bit
// for bit — the oracles read the same bias plane and the same versioned
// sampler, so pruning, packing and sharding are the only differences,
// and all three are exact — and the aging pools to agree to float
// rounding. Their timings are recorded in BENCH_4.json and
// BENCH_6.json.
//
// It also keeps the two-pass mismatch synthesis, which evaluated the
// smooth field twice per cell, serially: once for its mean, once to
// apply it, and drew every cell's white mismatch in one serial pass.
// TestMismatchFieldEquivalence and TestWhiteDrawsRetryEquivalence
// require the one-pass, chunked synthesizeMismatch to write the same
// plane bit for bit.
//
// It keeps the serial capture-layout build, which
// TestKernelLayoutEquivalence holds the two-pass ensureKernel to.
//
// Last, it keeps resolveRace, the pruned per-byte race that
// TestChunkSplitEquivalence drives at forced chunk sizes.

// PowerOnReference resolves a power-on race with the serial, unpruned
// engine. Semantics match PowerOn exactly: same counter consumption,
// same remanence handling, bit-identical output.
func (a *Array) PowerOnReference(tempC float64) ([]byte, error) {
	if a.powered {
		return nil, ErrPowered
	}
	if a.remanent {
		a.remanent = false
		a.powered = true
		out := make([]byte, len(a.data))
		copy(out, a.data)
		return out, nil
	}
	if err := a.ensureBiasPlane(context.Background()); err != nil {
		return nil, err
	}
	sigma := a.noiseSigmaAt(tempC)
	norm := a.drawNorm
	ctr := a.powerOns
	a.powerOns++
	for byteIdx := range a.data {
		var out byte
		base := byteIdx * 8
		for b := 0; b < 8; b++ {
			i := base + b
			if float64(a.biasPlane[i])+sigma*norm(ctr, uint64(i)) > 0 {
				out |= 1 << b
			}
		}
		a.data[byteIdx] = out
	}
	a.powered = true
	out := make([]byte, len(a.data))
	copy(out, a.data)
	return out, nil
}

// CaptureVotesReference runs a capture burst with the serial, unpruned
// engine: every cell draws noise for every race. It must return votes
// bit-identical to CaptureVotes from the same array state — the
// equivalence gate behind BENCH_4's capture speedups.
func (a *Array) CaptureVotesReference(captures int, tempC float64) ([]uint16, error) {
	if captures < 1 {
		return nil, fmt.Errorf("sram: need at least one capture, got %d", captures)
	}
	counts := make([]uint32, a.n)
	races := captures
	if !a.powered && a.remanent {
		a.remanent = false
		for i := 0; i < a.n; i++ {
			if a.data[i/8]&(1<<(i%8)) != 0 {
				counts[i]++
			}
		}
		races--
	}
	if races > 0 {
		if err := a.ensureBiasPlane(context.Background()); err != nil {
			return nil, err
		}
		sigma := a.noiseSigmaAt(tempC)
		norm := a.drawNorm
		base := a.powerOns
		a.powerOns += uint64(races)
		for byteIdx := range a.data {
			var final byte
			cell := byteIdx * 8
			for b := 0; b < 8; b++ {
				i := cell + b
				bias := float64(a.biasPlane[i])
				idx := uint64(i)
				for k := 0; k < races; k++ {
					if bias+sigma*norm(base+uint64(k), idx) > 0 {
						counts[i]++
						if k == races-1 {
							final |= 1 << b
						}
					}
				}
			}
			a.data[byteIdx] = final
		}
	}
	a.powered = true
	votes := make([]uint16, a.n)
	for i, c := range counts {
		votes[i] = uint16(c)
	}
	return votes, nil
}

// StressReference ages the array with the pre-overhaul serial loop:
// analog.GrowShift per cell, which re-derives the equivalent time with
// an inverse math.Pow (and re-evaluates Rate) on every cell. It runs on
// a StateSnapshot's per-cell pools and writes them back through
// RestoreState, whose stale equivalent times are what the loop leaves.
// Results agree with Stress to floating-point rounding —
// TestStressMatchesReference compares the biases to a relative
// tolerance.
func (a *Array) StressReference(c analog.Conditions, hours float64) error {
	if !a.powered {
		return ErrUnpowered
	}
	if hours <= 0 {
		return nil
	}
	p := a.spec.Aging
	fFast, fSlow := p.RecoveryFactorsAt(hours, c.TempC)
	permFrac := p.PermanentFrac()
	st := a.StateSnapshot()
	for i := 0; i < a.n; i++ {
		held1 := a.data[i/8]&(1<<(i%8)) != 0
		if held1 {
			growPoolsLegacy(p, c, hours, permFrac, &st.S1Perm[i], &st.S1Fast[i], &st.S1Slow[i])
			st.S0Fast[i] *= float32(fFast)
			st.S0Slow[i] *= float32(fSlow)
		} else {
			growPoolsLegacy(p, c, hours, permFrac, &st.S0Perm[i], &st.S0Fast[i], &st.S0Slow[i])
			st.S1Fast[i] *= float32(fFast)
			st.S1Slow[i] *= float32(fSlow)
		}
	}
	return a.RestoreState(st)
}

// growPoolsLegacy is the pre-overhaul per-cell growth: state re-derived
// from the pool totals through GrowShift's inverse power on every call.
func growPoolsLegacy(p analog.Params, c analog.Conditions, hours, permFrac float64,
	perm, fast, slow *float32) {
	total := float64(*perm) + float64(*fast) + float64(*slow)
	delta := p.GrowShift(total, c, hours) - total
	if delta <= 0 {
		return
	}
	*perm += float32(delta * permFrac)
	*fast += float32(delta * p.RecFastFrac)
	*slow += float32(delta * p.RecSlowFrac)
}

// CaptureVotesScalar runs a capture burst with the pre-kernel scalar
// engine: deterministic-cell pruning and the per-cell bias hoisted, but
// one noise draw resolved at a time through the versioned sampler.
// Kept as a second differential witness (kernel vs scalar vs
// reference) for the equivalence suites. Semantics match CaptureVotes
// exactly.
func (a *Array) CaptureVotesScalar(captures int, tempC float64) ([]uint16, error) {
	return a.CaptureVotesScalarContext(context.Background(), captures, tempC)
}

// CaptureVotesScalarContext is CaptureVotesScalar with cancellation.
func (a *Array) CaptureVotesScalarContext(ctx context.Context, captures int, tempC float64) ([]uint16, error) {
	if err := validCaptures(captures); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	counts := make([]uint32, a.n)
	races := captures
	if !a.powered && a.remanent {
		// First capture is the remembered state; no race, no counter.
		a.remanent = false
		for i := 0; i < a.n; i++ {
			if a.data[i/8]&(1<<(i%8)) != 0 {
				counts[i]++
			}
		}
		races--
	}
	if races > 0 {
		if err := a.ensureBiasPlane(ctx); err != nil {
			a.powered = false
			return nil, err
		}
		sigma := a.noiseSigmaAt(tempC)
		bound := a.pruneBound(sigma)
		norm := a.drawNorm
		base := a.powerOns
		a.powerOns += uint64(races)
		err := a.pool.Run(ctx, len(a.data), 1, func(lo, hi int) {
			for byteIdx := lo; byteIdx < hi; byteIdx++ {
				var final byte
				cell := byteIdx * 8
				for b := 0; b < 8; b++ {
					i := cell + b
					bias := float64(a.biasPlane[i])
					// Deterministic cells resolve the same way on every
					// race (v2 noise is hard-bounded): credit the whole
					// burst at once, no draws.
					if bias > bound {
						counts[i] += uint32(races)
						final |= 1 << uint(b)
						continue
					}
					if bias < -bound {
						continue
					}
					idx := uint64(i)
					for k := 0; k < races; k++ {
						if bias+sigma*norm(base+uint64(k), idx) > 0 {
							counts[i]++
							if k == races-1 {
								final |= 1 << uint(b)
							}
						}
					}
				}
				a.data[byteIdx] = final
			}
		})
		if err != nil {
			// Cancelled mid-burst: the data plane is partially written,
			// so leave the array unpowered — the next power-on runs a
			// fresh race over everything.
			a.powered = false
			return nil, err
		}
	}
	a.powered = true
	votes := make([]uint16, a.n)
	for i, c := range counts {
		votes[i] = uint16(c)
	}
	return votes, nil
}

// DeterministicFrac reports the fraction of cells whose power-on state
// at tempC is already decided by their bias alone — the cells the v2
// capture engine prunes (credits without drawing noise). Zero for v1
// arrays. After a message imprint this is close to 1, which is where
// the capture speedup comes from.
func (a *Array) DeterministicFrac(tempC float64) (float64, error) {
	if err := a.ensureBiasPlane(context.Background()); err != nil {
		return 0, err
	}
	bound := a.pruneBound(a.noiseSigmaAt(tempC))
	pruned := 0
	for _, b := range a.biasPlane {
		if v := float64(b); v > bound || v < -bound {
			pruned++
		}
	}
	return float64(pruned) / float64(a.n), nil
}

// synthesizeMismatchReference is the two-pass mismatch synthesis,
// verbatim.
func (a *Array) synthesizeMismatchReference(src *rng.Source) {
	sigma := a.spec.MismatchSigmaMv
	gAmp := sigma * a.spec.GradientFrac

	type wave struct{ kr, kc, phase, amp float64 }
	waves := make([]wave, 4)
	for i := range waves {
		waves[i] = wave{
			kr:    (src.Float64()*2 - 1) * 3 * math.Pi / float64(a.spec.Rows),
			kc:    (src.Float64()*2 - 1) * 3 * math.Pi / float64(a.spec.Cols),
			phase: src.Float64() * 2 * math.Pi,
			amp:   gAmp * (0.5 + src.Float64()),
		}
	}
	tiltR := (src.Float64()*2 - 1) * gAmp / float64(a.spec.Rows)
	tiltC := (src.Float64()*2 - 1) * gAmp / float64(a.spec.Cols)

	// First pass: compute the smooth field's mean so it can be centered.
	// An uncentered gradient would bias the whole device's power-on state
	// away from 0.5, which real silicon does not show (Table 5's clean
	// biases are 0.500–0.502).
	var smoothMean float64
	smoothAt := func(r, c int) float64 {
		s := tiltR*float64(r) + tiltC*float64(c)
		for _, w := range waves {
			s += w.amp * math.Sin(w.kr*float64(r)+w.kc*float64(c)+w.phase)
		}
		return s
	}
	for r := 0; r < a.spec.Rows; r++ {
		for c := 0; c < a.spec.Cols; c++ {
			smoothMean += smoothAt(r, c)
		}
	}
	smoothMean /= float64(a.n)

	i := 0
	for r := 0; r < a.spec.Rows; r++ {
		for c := 0; c < a.spec.Cols; c++ {
			smooth := smoothAt(r, c) - smoothMean
			if a.spec.ExtremeFrac > 0 && src.Float64() < a.spec.ExtremeFrac {
				mag := a.spec.ExtremeMinMv +
					src.Float64()*(a.spec.ExtremeMaxMv-a.spec.ExtremeMinMv)
				if src.Float64() < 0.5 {
					mag = -mag
				}
				a.mismatch[i] = float32(mag + smooth)
			} else {
				a.mismatch[i] = float32(src.NormScaled(0, sigma) + smooth)
			}
			i++
		}
	}
}

// kernelLayout is one packed capture layout: the deterministic word
// planes and the noisy-cell residue.
type kernelLayout struct {
	det1, det0 []uint64
	cellIdx    []uint32
	idxMul     []uint64
	xt         []float64
	xtLo, xtHi []float32
}

// kernelLayoutReference is the serial layout build the two-pass
// ensureKernel replaced, verbatim apart from writing into a fresh
// kernelLayout: one walk over the bias plane in cell order, appending
// each noisy cell to the residue. TestKernelLayoutEquivalence requires
// the kernel's layout to equal it array for array. The caller must
// ensureBiasPlane first.
func (a *Array) kernelLayoutReference(sigma float64) kernelLayout {
	nw := (a.n + 63) / 64
	k := kernelLayout{det1: make([]uint64, nw), det0: make([]uint64, nw)}
	bound := a.pruneBound(sigma)
	zig := a.spec.NoiseGen == NoiseGenZiggurat
	for w := 0; w < nw; w++ {
		var d1, d0 uint64
		base := w * 64
		lim := a.n - base
		if lim > 64 {
			lim = 64
		}
		for j := 0; j < lim; j++ {
			i := base + j
			bias := float64(a.biasPlane[i])
			if bias > bound {
				d1 |= 1 << uint(j)
				continue
			}
			if bias < -bound {
				d0 |= 1 << uint(j)
				continue
			}
			xt := rng.VoteThreshold(bias, sigma)
			k.cellIdx = append(k.cellIdx, uint32(i))
			k.idxMul = append(k.idxMul, rng.IdxMul(uint64(i)))
			k.xt = append(k.xt, xt)
			if zig {
				lo, hi := rng.VoteBoundsF32(xt)
				k.xtLo = append(k.xtLo, lo)
				k.xtHi = append(k.xtHi, hi)
			}
		}
		k.det1[w] = d1
		k.det0[w] = d0
	}
	return k
}

// resolveRace runs power-on race ctr for the cells of bytes [lo, hi),
// writing the resolved bits into a.data. It reads the cached bias plane
// (the caller must ensureBiasPlane first) and skips the noise draw for
// cells beyond bound — their outcome is the sign of the bias for every
// achievable draw. Safe to call concurrently on disjoint byte ranges.
func (a *Array) resolveRace(ctr uint64, sigma, bound float64, lo, hi int) {
	norm := a.drawNorm
	for byteIdx := lo; byteIdx < hi; byteIdx++ {
		var out byte
		base := byteIdx * 8
		for b := 0; b < 8; b++ {
			i := base + b
			bias := float64(a.biasPlane[i])
			if bias > bound {
				out |= 1 << b
				continue
			}
			if bias < -bound {
				continue
			}
			if bias+sigma*norm(ctr, uint64(i)) > 0 {
				out |= 1 << b
			}
		}
		a.data[byteIdx] = out
	}
}
