package ecc

// Hamming74 is the classic (7,4) Hamming code: 4 data bits per 7-bit
// codeword, correcting any single bit error per codeword. §5.2 pairs it
// with the repetition code once the raw error is low enough: "more
// efficient error correction codes are available".
//
// Codeword layout (bit positions 1..7, parity at powers of two):
//
//	p1 p2 d1 p4 d2 d3 d4
//
// with p1 = d1⊕d2⊕d4, p2 = d1⊕d3⊕d4, p4 = d2⊕d3⊕d4. The syndrome
// (s4 s2 s1) directly indexes the erroneous position.
type Hamming74 struct{}

// Name implements Codec.
func (Hamming74) Name() string { return "hamming(7,4)" }

// EncodedLen implements Codec: 8·msgBytes data bits → 2·msgBytes
// codewords → 14·msgBytes bits, rounded up to bytes.
func (Hamming74) EncodedLen(msgBytes int) int { return (14*msgBytes + 7) / 8 }

// encodeNibble maps 4 data bits (d1..d4 in bits 0..3) to a 7-bit codeword.
func encodeNibble(d byte) byte {
	d1 := d & 1
	d2 := (d >> 1) & 1
	d3 := (d >> 2) & 1
	d4 := (d >> 3) & 1
	p1 := d1 ^ d2 ^ d4
	p2 := d1 ^ d3 ^ d4
	p4 := d2 ^ d3 ^ d4
	// bits 0..6 = positions 1..7.
	return p1 | p2<<1 | d1<<2 | p4<<3 | d2<<4 | d3<<5 | d4<<6
}

// decodeNibble corrects a single-bit error in the 7-bit codeword and
// returns the 4 data bits.
func decodeNibble(cw byte) byte {
	p1 := cw & 1
	p2 := (cw >> 1) & 1
	d1 := (cw >> 2) & 1
	p4 := (cw >> 3) & 1
	d2 := (cw >> 4) & 1
	d3 := (cw >> 5) & 1
	d4 := (cw >> 6) & 1
	s1 := p1 ^ d1 ^ d2 ^ d4
	s2 := p2 ^ d1 ^ d3 ^ d4
	s4 := p4 ^ d2 ^ d3 ^ d4
	syndrome := s1 | s2<<1 | s4<<2 // equals the 1-based error position
	if syndrome != 0 {
		cw ^= 1 << (syndrome - 1)
		d1 = (cw >> 2) & 1
		d2 = (cw >> 4) & 1
		d3 = (cw >> 5) & 1
		d4 = (cw >> 6) & 1
	}
	return d1 | d2<<1 | d3<<2 | d4<<3
}

// Encode implements Codec: one table hit per message byte emits both
// codewords (14 bits) into a draining bit accumulator.
func (h Hamming74) Encode(msg []byte) ([]byte, error) {
	out := make([]byte, h.EncodedLen(len(msg)))
	hammingEncodeInto(out, msg)
	return out, nil
}

// Decode implements Codec. The per-bit syndrome path lives on as the
// test-only DecodeScalar oracle; the default path looks each 14-bit
// payload chunk up in a table built from decodeNibble, so one hit
// corrects and extracts a whole message byte.
func (h Hamming74) Decode(payload []byte, msgBytes int) ([]byte, error) {
	if len(payload) != h.EncodedLen(msgBytes) {
		return nil, ErrPayloadSize
	}
	out := make([]byte, msgBytes)
	hammingDecodeInto(out, payload, msgBytes)
	return out, nil
}

// Rate implements Codec.
func (Hamming74) Rate() float64 { return 4.0 / 7.0 }
