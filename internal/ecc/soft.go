package ecc

import "fmt"

// SoftDecoder is the optional soft-decision interface. conf holds one
// confidence per *coded* bit: the probability (in [0, 1]) that the bit is
// a 1, as estimated from the channel (for Invisible Bits, from the
// fraction of power-on captures reading 1, inverted into payload domain).
//
// Hard majority voting throws this information away: a copy whose cell
// read 5/5 captures as 1 counts exactly as much as one that read 3/5.
// Soft combining weights each copy by its confidence, which both improves
// the residual error at a given copy count and makes even copy counts
// usable (ties dissolve). This is an extension beyond the paper's §4.3
// majority scheme; the ablation bench quantifies the gain.
type SoftDecoder interface {
	Codec
	// DecodeSoft recovers a message of msgBytes bytes from per-coded-bit
	// confidences (length must be 8×EncodedLen(msgBytes)).
	DecodeSoft(conf []float64, msgBytes int) ([]byte, error)
}

// DecodeSoft implements SoftDecoder for the repetition code: per message
// bit, sum the confidences across copies and threshold at half the copy
// count. With binary confidences this degenerates to exactly the hard
// majority vote.
func (r Repetition) DecodeSoft(conf []float64, msgBytes int) ([]byte, error) {
	if len(conf) != 8*r.EncodedLen(msgBytes) {
		return nil, ErrPayloadSize
	}
	out := make([]byte, msgBytes)
	bitsPerCopy := msgBytes * 8
	threshold := float64(r.N) / 2
	for bit := 0; bit < bitsPerCopy; bit++ {
		var sum float64
		for c := 0; c < r.N; c++ {
			sum += conf[c*bitsPerCopy+bit]
		}
		if sum > threshold {
			setBit(out, bit, 1)
		}
	}
	return out, nil
}

// DecodeSoft implements SoftDecoder for Composite when the inner
// (channel-facing) codec is itself a SoftDecoder: the inner code consumes
// the confidences, the outer code decodes the resulting hard bits.
func (c Composite) DecodeSoft(conf []float64, msgBytes int) ([]byte, error) {
	soft, ok := c.Inner.(SoftDecoder)
	if !ok {
		return nil, fmt.Errorf("ecc: inner codec %s has no soft decoder", c.Inner.Name())
	}
	midLen := c.Outer.EncodedLen(msgBytes)
	mid, err := soft.DecodeSoft(conf, midLen)
	if err != nil {
		return nil, err
	}
	return c.Outer.Decode(mid, msgBytes)
}

// DecodeSoft implements SoftDecoder for Identity: confidences threshold
// directly at 0.5.
func (Identity) DecodeSoft(conf []float64, msgBytes int) ([]byte, error) {
	if len(conf) != 8*msgBytes {
		return nil, ErrPayloadSize
	}
	out := make([]byte, msgBytes)
	for bit := 0; bit < msgBytes*8; bit++ {
		if conf[bit] > 0.5 {
			setBit(out, bit, 1)
		}
	}
	return out, nil
}

// Interface checks.
var (
	_ SoftDecoder = Repetition{}
	_ SoftDecoder = Composite{}
	_ SoftDecoder = Identity{}
)
