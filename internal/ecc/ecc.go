// Package ecc implements the error-correcting codes the paper layers on
// top of Invisible Bits (§5.2): bit-majority repetition codes for the
// high-error regime, Hamming(7,4) for the low-error regime, their
// composition (Fig. 10: "a Hamming(7,4) code on top of up to 17 copies of
// the payload"), and a block bit-interleaver as a resilience extension.
//
// "The actual ECC method is orthogonal to Invisible Bits" (§4.1), so
// everything is expressed against the Codec interface and codecs compose.
package ecc

import (
	"errors"
	"fmt"
)

// Codec transforms a message into a channel payload and back. Decode is
// best-effort: it corrects what the code can correct and returns the
// residual errors silently (the channel is noisy by design; callers
// measure the residual bit error rate).
type Codec interface {
	// Name identifies the codec for reports, e.g. "repetition(5)".
	Name() string
	// EncodedLen returns the payload size in bytes for a message of
	// msgBytes bytes.
	EncodedLen(msgBytes int) int
	// Encode produces the channel payload.
	Encode(msg []byte) ([]byte, error)
	// Decode recovers a message of msgBytes bytes from a payload produced
	// by Encode (possibly corrupted in transit). It only reads payload:
	// the adaptive decoder reuses one hard decision across rungs.
	Decode(payload []byte, msgBytes int) ([]byte, error)
	// Rate returns the information rate in data bits per coded bit.
	Rate() float64
}

// ErrPayloadSize is returned when a payload cannot have been produced by
// the codec for the stated message size.
var ErrPayloadSize = errors.New("ecc: payload length inconsistent with message length")

// --- bit helpers -----------------------------------------------------------

func getBit(buf []byte, i int) byte { return (buf[i/8] >> (i % 8)) & 1 }

func setBit(buf []byte, i int, v byte) {
	if v != 0 {
		buf[i/8] |= 1 << (i % 8)
	} else {
		buf[i/8] &^= 1 << (i % 8)
	}
}

// --- identity ---------------------------------------------------------------

// Identity is the no-op codec (raw channel).
type Identity struct{}

// Name implements Codec.
func (Identity) Name() string { return "identity" }

// EncodedLen implements Codec.
func (Identity) EncodedLen(msgBytes int) int { return msgBytes }

// Encode implements Codec.
func (Identity) Encode(msg []byte) ([]byte, error) {
	out := make([]byte, len(msg))
	copy(out, msg)
	return out, nil
}

// Decode implements Codec.
func (Identity) Decode(payload []byte, msgBytes int) ([]byte, error) {
	if len(payload) != msgBytes {
		return nil, ErrPayloadSize
	}
	out := make([]byte, msgBytes)
	copy(out, payload)
	return out, nil
}

// Rate implements Codec.
func (Identity) Rate() float64 { return 1 }

// --- repetition --------------------------------------------------------------

// Repetition encodes N whole copies of the message and decodes by per-bit
// majority vote — §5.2's workhorse for the >5 % error regime. N must be
// odd so the vote cannot tie.
type Repetition struct{ N int }

// NewRepetition validates the copy count.
func NewRepetition(n int) (Repetition, error) {
	if n < 1 || n%2 == 0 {
		return Repetition{}, fmt.Errorf("ecc: repetition needs odd n >= 1, got %d", n)
	}
	return Repetition{N: n}, nil
}

// Name implements Codec.
func (r Repetition) Name() string { return fmt.Sprintf("repetition(%d)", r.N) }

// EncodedLen implements Codec.
func (r Repetition) EncodedLen(msgBytes int) int { return msgBytes * r.N }

// Encode implements Codec.
func (r Repetition) Encode(msg []byte) ([]byte, error) {
	out := make([]byte, 0, len(msg)*r.N)
	for i := 0; i < r.N; i++ {
		out = append(out, msg...)
	}
	return out, nil
}

// Decode implements Codec. The per-bit vote loop lives on as the
// test-only DecodeScalar oracle; the default path majority-votes 64
// message bits per step by ripple-adding the byte-aligned copies into
// bit-sliced counters (see repMajorityInto).
func (r Repetition) Decode(payload []byte, msgBytes int) ([]byte, error) {
	if len(payload) != msgBytes*r.N {
		return nil, ErrPayloadSize
	}
	out := make([]byte, msgBytes)
	repMajorityInto(out, payload, r.N, msgBytes)
	return out, nil
}

// Rate implements Codec.
func (r Repetition) Rate() float64 { return 1 / float64(r.N) }
