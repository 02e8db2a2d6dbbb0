// Package sram models an embedded SRAM array at the analog level of
// detail Invisible Bits needs: per-cell process variation, data-directed
// NBTI aging of the cross-coupled inverters, noisy power-on state
// sampling, data remanence, and ordinary digital read/write operation.
//
// # Reduced-order cell model
//
// The transistor-level race of §2.1 (validated in internal/spice) reduces
// to one decision variable per cell:
//
//	bias B = mismatch + S0 − S1      (all in mV)
//
// where mismatch is the static |vth2|−|vth4| asymmetry from process
// variation, S0 is the aging accumulated while the cell held logic 0
// (stressing M2, biasing future power-ons toward 1), and S1 the aging
// while holding 1 (stressing M4, biasing toward 0). A power-on event
// samples `B + noise > 0` with fresh Gaussian thermal noise — giving the
// temporal randomness that makes majority voting across captures
// meaningful (§4.3) and the spatial randomness that makes clean SRAM a
// fingerprint (§2).
//
// Mismatch is drawn from a per-device seed, so a given (simulated) device
// exhibits the same power-on fingerprint across program runs, like real
// silicon. A small smooth across-die gradient component reproduces the
// slightly positive Moran's I the paper measures on unstressed devices
// (Table 2: 0.009–0.011).
package sram

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/parallel"
	"invisiblebits/internal/rng"
)

// Spec describes the physical and statistical properties of an array.
type Spec struct {
	// Rows and Cols give the physical layout; Rows*Cols is the bit count
	// and must be a multiple of 8.
	Rows, Cols int
	// MismatchSigmaMv is the standard deviation of the local (white)
	// component of per-cell inverter mismatch.
	MismatchSigmaMv float64
	// GradientFrac scales the smooth across-die variation component as a
	// fraction of MismatchSigmaMv (≈0.08 reproduces the paper's Moran's I
	// of ~0.01 on clean devices). The field is centered so it never biases
	// the device-level mean.
	GradientFrac float64
	// NoiseSigmaMv is the per-power-on thermal noise standard deviation at
	// the nominal temperature.
	NoiseSigmaMv float64
	// NoiseTempRefC anchors the √T scaling of thermal noise.
	NoiseTempRefC float64
	// ExtremeFrac is the fraction of cells with defect-class mismatch far
	// beyond the Gaussian population. These are §5.1.1's cells whose
	// "manufacturing mismatch between the inverters can be so large that
	// stress-induced degradation fails to overcome such bias" — they set
	// the error floor of Invisible Bits.
	ExtremeFrac float64
	// ExtremeMinMv and ExtremeMaxMv bound the uniform magnitude of the
	// defect-class mismatch.
	ExtremeMinMv, ExtremeMaxMv float64
	// Aging is the device's NBTI response.
	Aging analog.Params
	// Seed determines the mismatch pattern (device identity); the noise
	// stream is keyed by it.
	Seed uint64
	// Workers bounds the capture engine's worker pool for this array.
	// 0 (the default) shares the process-wide pool (GOMAXPROCS
	// workers), which also bounds *fleet-wide* capture parallelism when
	// many arrays run bursts concurrently. Worker count never affects
	// results: per-cell noise is counter-derived, so any sharding
	// produces bit-identical captures.
	Workers int
}

// DefaultSpec returns an MSP432-class 64 KB array specification.
func DefaultSpec() Spec {
	return Spec{
		Rows:            512,
		Cols:            1024,
		MismatchSigmaMv: 30,
		GradientFrac:    0.08,
		NoiseSigmaMv:    1.2,
		NoiseTempRefC:   25,
		ExtremeFrac:     0.005,
		ExtremeMinMv:    150,
		ExtremeMaxMv:    500,
		Aging: analog.Params{
			A0MvPerHourN:    analog.CalibrateA0(0.66, 45.4, 10),
			TimeExponent:    0.66,
			GammaPerVolt:    1.6,
			ActivationEV:    0.19,
			Ref:             analog.Conditions{VoltageV: 3.3, TempC: 85},
			RecFastFrac:     0.12,
			RecSlowFrac:     0.16,
			TauFastHours:    100,
			TauSlowHours:    1350,
			RecActivationEV: 0.30,
			RecTRefC:        25,
		},
		Seed: 1,
	}
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Rows <= 0 || s.Cols <= 0 {
		return fmt.Errorf("sram: non-positive dimensions %dx%d", s.Rows, s.Cols)
	}
	if (s.Rows*s.Cols)%8 != 0 {
		return fmt.Errorf("sram: bit count %d not byte-aligned", s.Rows*s.Cols)
	}
	if s.MismatchSigmaMv <= 0 || s.NoiseSigmaMv < 0 || s.GradientFrac < 0 {
		return errors.New("sram: mismatch/noise parameters out of range")
	}
	if s.ExtremeFrac < 0 || s.ExtremeFrac >= 1 || (s.ExtremeFrac > 0 && s.ExtremeMaxMv < s.ExtremeMinMv) {
		return errors.New("sram: defect-population parameters out of range")
	}
	return s.Aging.Validate()
}

// Array is a simulated SRAM. The zero value is unusable; use New.
type Array struct {
	spec Spec
	n    int // cell count

	mismatch []float32 // static per-cell mismatch, mV

	// A cell's aging state depends only on the bits it held under each
	// stress and on the shelf history, so cells that share a history
	// hold the same floats bit for bit. Each cell names its history
	// class; hist holds each class's aging state once (see history).
	// Every class is used by at least one cell. Two histories can reach
	// the same floats, so hist may repeat a value; AppendState merges
	// them.
	class []uint32
	hist  []history

	// The steady-Stress record (see Stress): the data plane the last
	// Stress left, and heldPairs[k] = 2k + the bit class k's cells held
	// through it. nil heldPairs means no record.
	heldData  []byte
	heldPairs []uint32
	// The class index AppendState last wrote, and the renumbering it
	// was packed under; nil packedRenum means none.
	packed      []byte
	packedRenum []uint32

	data     []byte // current digital contents, bit-packed row-major
	powered  bool
	remanent bool // charge left on nodes by a non-discharged power-off

	// noise is the counter-based thermal-noise plane: power-on number k
	// samples cell i's noise as noise.NormZig(k, i), a ziggurat variate
	// hard-truncated at ±rng.NormZigguratBound (8σ, P ≈ 1e-15 —
	// physically immaterial), which is what makes deterministic-cell
	// pruning exact. powerOns counts the races run so far, so every
	// power-on draws from a fresh counter regardless of which worker
	// resolves which cell.
	noise    rng.Stream
	powerOns uint64

	// biasPlane caches each cell's decision variable as one flat,
	// cache-friendly array so the race loops read one float32 instead
	// of gathering the cell's mismatch and class. The engine's decision
	// variable is float64(biasPlane[i]); Bias keeps the exact seven-term
	// float64 sum for calibration and tests. New, Stress, decayPools
	// and ReadState mark it stale, and ensureBiasPlane, its
	// one writer, rebuilds it before the next race reads it, sharded
	// over the pool.
	biasPlane []float32
	biasFresh bool
	// biasEpoch counts bias-plane generations; ensureBiasPlane bumps it
	// so the capture kernel knows when its packed layout is stale.
	biasEpoch uint64

	// kern caches the word-parallel capture engine's packed layout and
	// burst scratch (see kernel.go).
	kern capKernel

	pool *parallel.Pool
}

// history is one aging class: the stress pools and equivalent times
// every cell of the class holds.
type history struct {
	// Per-direction stress pools (mV). s0* accumulate while holding 0
	// and push power-on toward 1; s1* push toward 0.
	s0Perm, s0Fast, s0Slow float32
	s1Perm, s1Fast, s1Slow float32
	// t0Ref and t1Ref track each direction's accumulated stress as
	// equivalent time at the reference rate A0 (total = A0·tⁿ), letting
	// Stress advance a class with one add + forward power evaluation
	// instead of the inverse math.Pow in analog.GrowShift. −1 marks a
	// stale entry (the direction's recoverable pools decayed, shrinking
	// total); the next growth re-derives it from the current total —
	// exactly the re-derivation the pre-overhaul engine did for every
	// cell on every call.
	t0Ref, t1Ref float64
}

// New builds an array with a fresh, unaged mismatch pattern.
func New(spec Spec) (*Array, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Rows * spec.Cols
	a := &Array{spec: spec, n: n, mismatch: make([]float32, n)}
	seedSrc := rng.NewSource(spec.Seed)
	mismatchSrc := seedSrc.Split()
	a.noise = rng.NewStream(spec.Seed)
	if spec.Workers > 0 {
		a.pool = parallel.New(spec.Workers)
	} else {
		a.pool = parallel.Shared()
	}
	// The synthesis's field scratch (8 B per cell) dies with it, so the
	// other planes are allocated after it: a collection during New then
	// finds at most the mismatch plane and the scratch live, and does
	// not raise the heap goal by the planes it would otherwise find too.
	a.synthesizeMismatch(mismatchSrc)
	// Every cell starts in one class of zero shift, whose zero
	// equivalent times are already valid.
	a.class = make([]uint32, n)
	a.hist = make([]history, 1)
	a.data = make([]byte, n/8)
	a.biasPlane = make([]float32, n)
	return a, nil
}

// classesChanged drops what was derived from the class array: the
// steady-Stress record and AppendState's packed index. Every write of
// the class array calls it; New starts without either.
func (a *Array) classesChanged() {
	a.heldPairs = nil
	a.packedRenum = nil
}

// SetPool points the array's capture engine at pool (nil restores the
// process-wide shared pool). A fleet hands every device the same pool
// to bound total capture parallelism; results are identical under any
// pool.
func (a *Array) SetPool(pool *parallel.Pool) {
	if pool == nil {
		pool = parallel.Shared()
	}
	a.pool = pool
}

// PowerOnCount returns how many power-on races the array has resolved —
// the noise-stream counter. It is part of the serialized state so a
// restored array replays the same noise future it would have seen.
func (a *Array) PowerOnCount() uint64 { return a.powerOns }

// synthKernels selects the AVX-512 synthesis kernels (rng.Field.Row and
// rng.WhiteCells) where the host has them. Both paths write the same
// plane bit for bit; the package's tests switch it off to hold the
// kernels to the scalar code on one host.
var synthKernels = rng.SynthKernels()

// synthesizeMismatch draws the white local component and superimposes a
// smooth low-frequency across-die field (smoothField).
//
// The white draws, chunked over the worker pool, read the field back.
// Every cell draws from the state the serial draw sequence reaches it
// at, and every float operation is the one the two-pass synthesis made,
// in its order, so the plane is the same bit for bit
// (TestMismatchFieldEquivalence, TestWhiteDrawsRetryEquivalence), and
// src ends where the serial draws leave it. Where synthKernels holds,
// both passes run eight cells per instruction through kernels that
// replay the scalar code's operations exactly, and the scalar code
// finishes each row's or chunk's tail.
func (a *Array) synthesizeMismatch(src *rng.Source) {
	field, smoothMean := a.smoothField(src)

	// The white draws run as chunks on the pool. A cell makes a fixed
	// number of draws (the defect test, then the defect's magnitude and
	// sign or Norm's two uniforms) except when Norm retries a zero first
	// uniform, so each chunk starts from src skipped to its first cell.
	// The kernel stops at a retrying cell, and the scalar draws go on
	// from there. A chunk that ends anywhere but its successor's start
	// drew more; the earliest such chunk started right, and every cell
	// after it is redrawn serially from its end state.
	white := rng.White{
		Sigma:       a.spec.MismatchSigmaMv,
		ExtremeFrac: a.spec.ExtremeFrac,
		ExtremeMin:  a.spec.ExtremeMinMv,
		ExtremeSpan: a.spec.ExtremeMaxMv - a.spec.ExtremeMinMv,
	}
	per := white.Draws()
	var (
		mu       sync.Mutex
		retryLo  = a.n // the earliest chunk that drew more: [retryLo, retryHi)
		retryHi  int
		retryEnd rng.Source
	)
	_ = a.pool.Run(context.Background(), a.n, 1, func(lo, hi int) {
		s, want := *src, *src
		s.Skip(per * uint64(lo))
		want.Skip(per * uint64(hi))
		i := lo
		if synthKernels {
			i += rng.WhiteCells(s, &white, field[lo:hi], smoothMean, a.mismatch[lo:hi])
			s.Skip(per * uint64(i-lo))
		}
		a.whiteCells(&s, field, smoothMean, i, hi)
		if s != want {
			mu.Lock()
			if lo < retryLo {
				retryLo, retryHi, retryEnd = lo, hi, s
			}
			mu.Unlock()
		}
	})
	if retryLo == a.n {
		src.Skip(per * uint64(a.n))
		return
	}
	*src = retryEnd
	a.whiteCells(src, field, smoothMean, retryHi, a.n)
}

// smoothField draws a smooth low-frequency across-die field (random
// sinusoids + planar tilt) from src and returns it row-major, one value
// per cell, with its mean. The field is evaluated rows in parallel on
// the worker pool (pure per-cell math, so any sharding gives the same
// values), through the field kernel where synthKernels holds, and its
// mean is summed serially in row-major order. TestMismatchFieldPins
// pins both bit for bit.
func (a *Array) smoothField(src *rng.Source) (field []float64, mean float64) {
	gAmp := a.spec.MismatchSigmaMv * a.spec.GradientFrac

	var f rng.Field
	for i := range f.Waves {
		f.Waves[i] = rng.Wave{
			KR:    (src.Float64()*2 - 1) * 3 * math.Pi / float64(a.spec.Rows),
			KC:    (src.Float64()*2 - 1) * 3 * math.Pi / float64(a.spec.Cols),
			Phase: src.Float64() * 2 * math.Pi,
			Amp:   gAmp * (0.5 + src.Float64()),
		}
	}
	f.TiltR = (src.Float64()*2 - 1) * gAmp / float64(a.spec.Rows)
	f.TiltC = (src.Float64()*2 - 1) * gAmp / float64(a.spec.Cols)

	// Background context: Run cannot fail.
	field, cols := make([]float64, a.n), a.spec.Cols
	_ = a.pool.Run(context.Background(), a.spec.Rows, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := field[r*cols : (r+1)*cols]
			c := 0
			if synthKernels {
				c = f.Row(r, row)
			}
			for ; c < cols; c++ {
				row[c] = f.At(r, c)
			}
		}
	})

	// Center the field. An uncentered gradient would bias the whole
	// device's power-on state away from 0.5, which real silicon does not
	// show (Table 5's clean biases are 0.500–0.502).
	for _, s := range field {
		mean += s
	}
	return field, mean / float64(a.n)
}

// whiteCells draws cells [lo, hi)'s white mismatch from src in cell
// order and writes each cell's mismatch over its centered field.
func (a *Array) whiteCells(src *rng.Source, field []float64, smoothMean float64, lo, hi int) {
	sigma := a.spec.MismatchSigmaMv
	for i := lo; i < hi; i++ {
		smooth := field[i] - smoothMean
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
	}
}

// Spec returns the array's construction parameters.
func (a *Array) Spec() Spec { return a.spec }

// Cells returns the number of bit cells.
func (a *Array) Cells() int { return a.n }

// Bytes returns the array capacity in bytes.
func (a *Array) Bytes() int { return a.n / 8 }

// Rows and Cols expose the physical layout for spatial statistics.
func (a *Array) Rows() int { return a.spec.Rows }

// Cols returns the number of columns in the physical layout.
func (a *Array) Cols() int { return a.spec.Cols }

// Powered reports whether the array currently has supply voltage.
func (a *Array) Powered() bool { return a.powered }

// bias returns the decision variable (mV) of a cell with the given
// mismatch in class h, summed in the fixed order mismatch, s0 pools, s1
// pools.
func (h *history) bias(mismatch float32) float64 {
	return float64(mismatch) +
		float64(h.s0Perm) + float64(h.s0Fast) + float64(h.s0Slow) -
		float64(h.s1Perm) - float64(h.s1Fast) - float64(h.s1Slow)
}

// Bias exposes the decision variable for cell i (mV): the bias plane
// that the device and aging pins hash.
func (a *Array) Bias(i int) float64 { return a.hist[a.class[i]].bias(a.mismatch[i]) }

// ensureBiasPlane rebuilds the cached decision-variable plane if it is
// stale, sharded over the worker pool (pure per-cell math, so any
// sharding gives the identical plane).
func (a *Array) ensureBiasPlane(ctx context.Context) error {
	if a.biasFresh {
		return ctx.Err()
	}
	class, plane, mismatch, hist := a.class, a.biasPlane, a.mismatch, a.hist
	if err := a.pool.Run(ctx, len(a.data), 1, func(lo, hi int) {
		biasCells(class[lo*8:hi*8], plane[lo*8:hi*8], mismatch[lo*8:hi*8], hist)
	}); err != nil {
		return err
	}
	a.biasFresh = true
	a.biasEpoch++ // the packed capture layout is stale
	return nil
}

// biasCells writes the bias of every cell of class into plane.
func biasCells(class []uint32, plane, mismatch []float32, hist []history) {
	plane = plane[:len(class)]
	mismatch = mismatch[:len(class)]
	for i, c := range class {
		plane[i] = float32(hist[c].bias(mismatch[i]))
	}
}

// pruneBound returns the decision threshold beyond which a cell's race
// outcome is deterministic for every draw of the noise plane: the noise
// is hard-truncated at ±NormZigguratBound, so |bias| > bound ⇒ bias +
// sigma·noise keeps bias's sign (float rounding is monotone, so
// fl(sigma·|noise|) ≤ fl(sigma·8) — the skip is exact, not
// approximate).
func pruneBound(sigma float64) float64 {
	return rng.NormZigguratBound * sigma
}
