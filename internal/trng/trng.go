// Package trng builds a true-random-number generator from SRAM power-on
// noise — the other security primitive the paper's background section
// grounds Invisible Bits in ("temporal and spatial randomness, making it
// an attractive security primitive … PUF, random number (TRNG), and
// device fingerprint generators", §2).
//
// Metastable cells — those whose inverter mismatch is smaller than the
// power-on thermal noise — resolve differently across power cycles and
// are genuine entropy sources. The package:
//
//   - calibrates a device to find its metastable cells,
//   - harvests raw bits from them across power cycles,
//   - debiases the stream with a von Neumann extractor, and
//   - guards the output with the SP 800-90B-style repetition-count and
//     adaptive-proportion health tests.
//
// It also implements the aging trick of the paper's citation [25]
// ("Leveraging aging effect to improve SRAM-based true random number
// generators"): briefly aging a device while it holds its own power-on
// state pushes strongly biased cells toward the metastable point,
// increasing the entropy-cell population.
package trng

import (
	"context"
	"errors"
	"fmt"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/device"
)

// Source is a calibrated SRAM entropy source.
type Source struct {
	dev   *device.Device
	cells []int // indices of metastable cells
	// carry state for the von Neumann extractor across harvests.
	pending []byte // raw bits (one per byte, 0/1) awaiting pairing
}

// Calibrate power-cycles the device captures times and selects cells
// whose observed ones-fraction lies strictly inside (lowFrac, highFrac) —
// the metastable population. More captures give a sharper selection;
// 15–31 is plenty.
func Calibrate(dev *device.Device, captures int, lowFrac, highFrac float64) (*Source, error) {
	if captures < 3 {
		return nil, errors.New("trng: calibration needs at least 3 captures")
	}
	if !(0 <= lowFrac && lowFrac < highFrac && highFrac <= 1) {
		return nil, fmt.Errorf("trng: bad selection band (%v, %v)", lowFrac, highFrac)
	}
	if dev.SRAM.Powered() {
		dev.PowerOff(true)
	}
	votes := make([]uint16, dev.SRAM.Cells())
	if err := dev.SRAM.CaptureVotesInto(context.TODO(), captures, 25, votes); err != nil {
		return nil, err
	}
	var cells []int
	for i, v := range votes {
		f := float64(v) / float64(captures)
		if f > lowFrac && f < highFrac {
			cells = append(cells, i)
		}
	}
	if len(cells) == 0 {
		return nil, errors.New("trng: no metastable cells found; age the device toward metastability first")
	}
	return &Source{dev: dev, cells: cells}, nil
}

// NoisyCellCount reports the size of the calibrated entropy population.
func (s *Source) NoisyCellCount() int { return len(s.cells) }

// harvest performs one power cycle and appends the metastable cells'
// values to the pending raw-bit queue.
func (s *Source) harvest() error {
	snap, err := s.dev.SRAM.PowerCycle(25)
	if err != nil {
		if !s.dev.SRAM.Powered() {
			snap, err = s.dev.SRAM.PowerOn(25)
		}
		if err != nil {
			return err
		}
	}
	for _, c := range s.cells {
		s.pending = append(s.pending, (snap[c/8]>>(c%8))&1)
	}
	return nil
}

// maxCyclesPerByte bounds the harvest loop so a degenerate source
// (all-stuck cells) errors out instead of spinning forever.
const maxCyclesPerByte = 64

// Read fills out with von-Neumann-extracted random bytes, drawing fresh
// power cycles as needed. It implements io.Reader's contract on the happy
// path (always fills the whole buffer or errors).
func (s *Source) Read(out []byte) (int, error) {
	bitsNeeded := len(out) * 8
	var bits []byte
	cycles := 0
	for len(bits) < bitsNeeded {
		// Extract from pending pairs.
		for len(s.pending) >= 2 && len(bits) < bitsNeeded {
			a, b := s.pending[0], s.pending[1]
			s.pending = s.pending[2:]
			// Von Neumann: 01 → 0, 10 → 1, 00/11 discarded.
			if a != b {
				bits = append(bits, a)
			}
		}
		if len(bits) >= bitsNeeded {
			break
		}
		if cycles > maxCyclesPerByte*len(out) {
			return 0, errors.New("trng: entropy starvation (cells too stable)")
		}
		if err := s.harvest(); err != nil {
			return 0, err
		}
		cycles++
	}
	for i := range out {
		out[i] = 0
	}
	for i, b := range bits[:bitsNeeded] {
		if b != 0 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return len(out), nil
}

// ImproveWithAging applies the [25] technique: hold the device's own
// power-on state under stress for hours, pushing every cell toward its
// metastable point. Strongly biased cells gain noise; already-metastable
// cells may overshoot slightly. Recalibrate afterwards.
func ImproveWithAging(dev *device.Device, cond analog.Conditions, hours float64) error {
	if !dev.SRAM.Powered() {
		if _, err := dev.PowerOn(25); err != nil {
			return err
		}
	}
	snap, err := dev.SRAM.PowerCycle(25)
	if err != nil {
		return err
	}
	if err := dev.SRAM.Write(snap); err != nil {
		return err
	}
	return dev.SRAM.Stress(cond, hours)
}

// --- health tests (SP 800-90B style) -------------------------------------------

// RepetitionCount implements the repetition count test: it fails if any
// value repeats cutoff or more times consecutively in the bit stream.
func RepetitionCount(bits []byte, cutoff int) error {
	if cutoff < 2 {
		return errors.New("trng: cutoff must be at least 2")
	}
	run := 0
	var prev byte = 2
	for i, b := range bits {
		v := b & 1
		if v == prev {
			run++
			if run >= cutoff {
				return fmt.Errorf("trng: repetition count test failed at bit %d (run of %d)", i, run)
			}
		} else {
			prev = v
			run = 1
		}
	}
	return nil
}

// AdaptiveProportion implements the adaptive proportion test over
// windows of windowSize bits: it fails if either value occupies more than
// cutoff positions in any window.
func AdaptiveProportion(bits []byte, windowSize, cutoff int) error {
	if windowSize <= 0 || cutoff <= windowSize/2 || cutoff > windowSize {
		return fmt.Errorf("trng: bad window/cutoff (%d, %d)", windowSize, cutoff)
	}
	for start := 0; start+windowSize <= len(bits); start += windowSize {
		ones := 0
		for _, b := range bits[start : start+windowSize] {
			ones += int(b & 1)
		}
		if ones > cutoff || windowSize-ones > cutoff {
			return fmt.Errorf("trng: adaptive proportion test failed in window at %d (%d ones of %d)",
				start, ones, windowSize)
		}
	}
	return nil
}

// BitsOf unpacks packed bytes into one-bit-per-byte form for the health
// tests.
func BitsOf(data []byte) []byte {
	out := make([]byte, len(data)*8)
	for i := range out {
		out[i] = (data[i/8] >> (i % 8)) & 1
	}
	return out
}
