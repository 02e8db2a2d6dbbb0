package sram

import (
	"context"
	"fmt"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/rng"
)

// Capture entry points. All of them run the word-parallel kernel burst
// (kernel.go), which counts into a bit-sliced VotePlane, and return the
// plane, a majority decided from it, or per-cell uint16 counts unpacked
// from it; the array is left powered with the final capture as its
// digital contents (as real hardware does after the last power cycle of
// a sampling burst). Because each race's noise is counter-derived
// (norm(k, i) for power-on k, cell i), results are bit-identical to
// running the races one by one, for any worker count and chunk size.
//
// Remanence is honoured exactly as in the serial engine: if the array
// is unpowered but remanent, the first capture returns the retained
// contents without running (or counting) a race.

// validCaptures rejects capture counts the burst engine cannot
// represent: non-positive, and counts beyond MaxCaptures (whose
// per-cell votes would not fit the 16-bit counters — the pre-kernel
// engine silently truncated these).
func validCaptures(captures int) error {
	if captures < 1 {
		return fmt.Errorf("sram: need at least one capture, got %d", captures)
	}
	if captures > MaxCaptures {
		return &CaptureCountError{Captures: captures}
	}
	return nil
}

// CaptureMajority performs captures power cycles at tempC and returns the
// per-bit majority across them — the receiver's noise filter from §4.3:
// "While any odd number of state captures works, we find that taking five
// captures is sufficient to filter noise." The array is left powered with
// the final capture as its contents.
func (a *Array) CaptureMajority(captures int, tempC float64) ([]byte, error) {
	return a.CaptureMajorityContext(context.Background(), captures, tempC)
}

// CaptureMajorityContext is CaptureMajority with cancellation: the burst
// checks ctx between dispatched chunks, so a cancelled multi-capture
// sweep stops without finishing the remaining cells.
func (a *Array) CaptureMajorityContext(ctx context.Context, captures int, tempC float64) ([]byte, error) {
	out := make([]byte, a.n/8)
	if err := a.CaptureMajorityInto(ctx, captures, tempC, out); err != nil {
		return nil, err
	}
	return out, nil
}

// CaptureMajorityInto is CaptureMajorityContext writing into a
// caller-provided buffer of Bytes() bytes: steady-state batch decoding
// reuses one buffer across bursts and allocates nothing.
func (a *Array) CaptureMajorityInto(ctx context.Context, captures int, tempC float64, out []byte) error {
	if captures < 1 || captures%2 == 0 {
		return fmt.Errorf("sram: majority voting needs an odd capture count, got %d", captures)
	}
	if err := validCaptures(captures); err != nil {
		return err
	}
	if len(out) != a.n/8 {
		return fmt.Errorf("sram: majority into %d bytes, need %d", len(out), a.n/8)
	}
	// Decide straight from the sliced counters, 64 cells per compare.
	plane := &a.kern.plane
	if err := a.captureBurstInto(ctx, captures, tempC, plane); err != nil {
		return err
	}
	plane.AtLeastInto(out, captures/2+1)
	return nil
}

// CaptureVotePlaneInto performs captures power cycles at tempC and
// writes, for each cell, how many captures read 1. This is the soft
// information behind majority voting: a cell reading 5/5 ones is far
// more trustworthy than one reading 3/5, and the soft-decision decoder
// (ecc.SoftDecoder) exploits exactly that. The counts are bit-sliced:
// p is resized to this array and ⌈log2(captures+1)⌉ slices, reusing
// its buffers, so a receiver that decides, or accumulates bursts, on
// the plane touches a few bits per cell instead of a uint16 and
// allocates nothing in steady state.
func (a *Array) CaptureVotePlaneInto(ctx context.Context, captures int, tempC float64, p *VotePlane) error {
	if err := validCaptures(captures); err != nil {
		return err
	}
	return a.captureBurstInto(ctx, captures, tempC, p)
}

// CaptureVotesInto is CaptureVotePlaneInto unpacked into a
// caller-provided buffer of Cells() uint16 counters: a burst into the
// kernel's own plane, then CountsInto. It allocates nothing in steady
// state.
func (a *Array) CaptureVotesInto(ctx context.Context, captures int, tempC float64, out []uint16) error {
	if err := validCaptures(captures); err != nil {
		return err
	}
	if len(out) != a.n {
		return fmt.Errorf("sram: votes into %d counters, need %d", len(out), a.n)
	}
	plane := &a.kern.plane
	if err := a.captureBurstInto(ctx, captures, tempC, plane); err != nil {
		return err
	}
	plane.CountsInto(out)
	return nil
}

// BiasMap estimates each cell's power-on bias (fraction of 1s) over the
// given number of captures — the quantity Fig. 3a–c histograms.
func (a *Array) BiasMap(captures int, tempC float64) ([]float64, error) {
	if err := validCaptures(captures); err != nil {
		return nil, err
	}
	plane := &a.kern.plane
	if err := a.captureBurstInto(context.TODO(), captures, tempC, plane); err != nil {
		return nil, err
	}
	out := make([]float64, a.n)
	inv := 1 / float64(captures)
	for i := range out {
		out[i] = float64(plane.Count(i)) * inv
	}
	return out, nil
}

// OperateRandom simulates ordinary software running on the device: it
// repeatedly fills the SRAM with pseudo-random words from the paper's
// LFSR+LCG workload generator and lets the device sit at conditions c for
// each epoch (§5.1.4). Cells therefore alternate held values epoch to
// epoch; reinforcement and opposition average out while the encoded
// direction's recoverable pools relax only during opposing epochs — which
// is why normal operation degrades the message *less* than shelving.
func (a *Array) OperateRandom(w *rng.WorkloadWriter, c analog.Conditions, hours, epochHours float64) error {
	if !a.powered {
		return ErrUnpowered
	}
	if hours <= 0 {
		return nil
	}
	if epochHours <= 0 {
		return fmt.Errorf("sram: epochHours must be positive, got %v", epochHours)
	}
	buf := make([]byte, a.Bytes())
	for remaining := hours; remaining > 0; remaining -= epochHours {
		dt := epochHours
		if remaining < dt {
			dt = remaining
		}
		w.Fill(buf)
		if err := a.Write(buf); err != nil {
			return err
		}
		if err := a.Stress(c, dt); err != nil {
			return err
		}
	}
	return nil
}
