package ecc

import "fmt"

// Composite chains two codecs: Encode runs Outer first, then Inner
// (the inner code is nearest the channel). The paper's end-to-end system
// (Fig. 13) uses Outer = Hamming(7,4) and Inner = repetition: "we apply a
// Hamming(7,4) on a message d and replicate the message and parity".
//
// Footnote 7 notes the order "does not significantly affect the overall
// error rate"; the ablation bench exercises both orders.
type Composite struct {
	Outer Codec // applied first on encode, last on decode
	Inner Codec // applied last on encode (channel-facing)
}

// Name implements Codec.
func (c Composite) Name() string {
	return fmt.Sprintf("%s+%s", c.Outer.Name(), c.Inner.Name())
}

// EncodedLen implements Codec.
func (c Composite) EncodedLen(msgBytes int) int {
	return c.Inner.EncodedLen(c.Outer.EncodedLen(msgBytes))
}

// Encode implements Codec.
func (c Composite) Encode(msg []byte) ([]byte, error) {
	mid, err := c.Outer.Encode(msg)
	if err != nil {
		return nil, err
	}
	return c.Inner.Encode(mid)
}

// Decode implements Codec.
func (c Composite) Decode(payload []byte, msgBytes int) ([]byte, error) {
	midLen := c.Outer.EncodedLen(msgBytes)
	mid, err := c.Inner.Decode(payload, midLen)
	if err != nil {
		return nil, err
	}
	return c.Outer.Decode(mid, msgBytes)
}

// Rate implements Codec.
func (c Composite) Rate() float64 { return c.Outer.Rate() * c.Inner.Rate() }

// Interleaver permutes payload bits with a fixed-depth block interleave,
// spreading burst errors across codewords. The paper finds Invisible
// Bits' errors already spatially random (Table 2), so interleaving is an
// optional resilience extension rather than a necessity; it matters when
// an adversary injects *localized* noise.
type Interleaver struct {
	Depth int   // number of interleaving rows; must be >= 1
	Next  Codec // codec whose output is interleaved
}

// Name implements Codec.
func (il Interleaver) Name() string {
	return fmt.Sprintf("interleave(%d,%s)", il.Depth, il.Next.Name())
}

// EncodedLen implements Codec.
func (il Interleaver) EncodedLen(msgBytes int) int { return il.Next.EncodedLen(msgBytes) }

// Encode implements Codec. The permutation is cached per (depth, n) —
// the old code rebuilt a []int on every call — and applied through its
// inverse as a gather (out bit k = lin bit inv[k]), 8 bits per step.
func (il Interleaver) Encode(msg []byte) ([]byte, error) {
	if il.Depth < 1 {
		return nil, fmt.Errorf("ecc: interleaver depth %d < 1", il.Depth)
	}
	lin, err := il.Next.Encode(msg)
	if err != nil {
		return nil, err
	}
	n := len(lin) * 8
	out := make([]byte, len(lin))
	gatherBits(out, lin, permFor(il.Depth, n).inv, n)
	return out, nil
}

// Decode implements Codec: the cached forward permutation gathers the
// linear stream straight out of the payload (lin bit i = payload bit
// fwd[i]). The per-bit path lives on as the test-only DecodeScalar
// oracle.
func (il Interleaver) Decode(payload []byte, msgBytes int) ([]byte, error) {
	if il.Depth < 1 {
		return nil, fmt.Errorf("ecc: interleaver depth %d < 1", il.Depth)
	}
	if len(payload) != il.EncodedLen(msgBytes) {
		return nil, ErrPayloadSize
	}
	n := len(payload) * 8
	lin := make([]byte, len(payload))
	gatherBits(lin, payload, permFor(il.Depth, n).fwd, n)
	return il.Next.Decode(lin, msgBytes)
}

// Rate implements Codec.
func (il Interleaver) Rate() float64 { return il.Next.Rate() }
