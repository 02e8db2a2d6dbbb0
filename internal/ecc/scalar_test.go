package ecc

import "fmt"

// Retained scalar decoders, test-only.
//
// These are the original bit-at-a-time decode bodies, kept verbatim when
// the default Decode/DecodeErasure paths went word-parallel. They are
// the equivalence oracle: the property suite and FuzzDecodePipeline
// compare the fast paths against them. Their timings, the pre-pipeline
// baseline, are recorded in BENCH_7.json.

// DecodeScalar decodes payload with the original scalar implementation
// of c. Codecs without a dedicated scalar path (external Codec
// implementations) fall back to their own Decode.
func DecodeScalar(c Codec, payload []byte, msgBytes int) ([]byte, error) {
	switch cc := c.(type) {
	case Identity:
		return cc.DecodeScalar(payload, msgBytes)
	case Repetition:
		return cc.DecodeScalar(payload, msgBytes)
	case Hamming74:
		return cc.DecodeScalar(payload, msgBytes)
	case Composite:
		return cc.DecodeScalar(payload, msgBytes)
	case Interleaver:
		return cc.DecodeScalar(payload, msgBytes)
	default:
		return c.Decode(payload, msgBytes)
	}
}

// DecodeScalar is the original Identity decode: a checked copy.
func (Identity) DecodeScalar(payload []byte, msgBytes int) ([]byte, error) {
	if len(payload) != msgBytes {
		return nil, ErrPayloadSize
	}
	out := make([]byte, msgBytes)
	copy(out, payload)
	return out, nil
}

// DecodeScalar is the original repetition decode: one vote loop per
// message bit.
func (r Repetition) DecodeScalar(payload []byte, msgBytes int) ([]byte, error) {
	if len(payload) != msgBytes*r.N {
		return nil, ErrPayloadSize
	}
	out := make([]byte, msgBytes)
	threshold := r.N/2 + 1
	for bit := 0; bit < msgBytes*8; bit++ {
		votes := 0
		for c := 0; c < r.N; c++ {
			votes += int(getBit(payload, c*msgBytes*8+bit))
		}
		if votes >= threshold {
			setBit(out, bit, 1)
		}
	}
	return out, nil
}

// DecodeScalar is the original Hamming(7,4) decode: per-bit codeword
// assembly and syndrome correction per nibble.
func (h Hamming74) DecodeScalar(payload []byte, msgBytes int) ([]byte, error) {
	if len(payload) != h.EncodedLen(msgBytes) {
		return nil, ErrPayloadSize
	}
	out := make([]byte, msgBytes)
	bit := 0
	for i := 0; i < msgBytes; i++ {
		var b byte
		for half := 0; half < 2; half++ {
			var cw byte
			for k := 0; k < 7; k++ {
				cw |= getBit(payload, bit) << k
				bit++
			}
			b |= decodeNibble(cw) << (4 * half)
		}
		out[i] = b
	}
	return out, nil
}

// DecodeScalar decodes a composite stack through the scalar paths of
// both stages.
func (c Composite) DecodeScalar(payload []byte, msgBytes int) ([]byte, error) {
	midLen := c.Outer.EncodedLen(msgBytes)
	mid, err := DecodeScalar(c.Inner, payload, midLen)
	if err != nil {
		return nil, err
	}
	return DecodeScalar(c.Outer, mid, msgBytes)
}

// DecodeScalar is the original interleaver decode: a setBit/getBit
// gather per payload bit (the permutation itself is shared with the
// fast path — caching it is behavior-neutral).
func (il Interleaver) DecodeScalar(payload []byte, msgBytes int) ([]byte, error) {
	if il.Depth < 1 {
		return nil, fmt.Errorf("ecc: interleaver depth %d < 1", il.Depth)
	}
	if len(payload) != il.EncodedLen(msgBytes) {
		return nil, ErrPayloadSize
	}
	n := len(payload) * 8
	p := permFor(il.Depth, n).fwd
	lin := make([]byte, len(payload))
	for i := 0; i < n; i++ {
		setBit(lin, i, getBit(payload, int(p[i])))
	}
	return DecodeScalar(il.Next, lin, msgBytes)
}

// DecodeErasureScalar decodes (payload, erased) with the original
// scalar erasure implementation of c — the oracle for the erasure-path
// property tests. Codecs without a scalar path fall back to their own
// DecodeErasure (or error if they have none).
func DecodeErasureScalar(c Codec, payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	switch cc := c.(type) {
	case Identity:
		return decodeErasureScalarIdentity(cc, payload, erased, msgBytes)
	case Repetition:
		return decodeErasureScalarRepetition(cc, payload, erased, msgBytes)
	case Hamming74:
		return decodeErasureScalarHamming(cc, payload, erased, msgBytes)
	case Composite:
		return decodeErasureScalarComposite(cc, payload, erased, msgBytes)
	case Interleaver:
		return decodeErasureScalarInterleaver(cc, payload, erased, msgBytes)
	default:
		ed, ok := c.(ErasureDecoder)
		if !ok {
			return nil, nil, fmt.Errorf("ecc: codec %s has no erasure decoder", c.Name())
		}
		return ed.DecodeErasure(payload, erased, msgBytes)
	}
}

func decodeErasureScalarIdentity(id Identity, payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	if err := checkErasureShape(id, payload, erased, msgBytes); err != nil {
		return nil, nil, err
	}
	out := make([]byte, msgBytes)
	unresolved := make([]bool, msgBytes*8)
	for bit := 0; bit < msgBytes*8; bit++ {
		if erased[bit] {
			unresolved[bit] = true
			continue
		}
		setBit(out, bit, getBit(payload, bit))
	}
	return out, unresolved, nil
}

func decodeErasureScalarRepetition(r Repetition, payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	if err := checkErasureShape(r, payload, erased, msgBytes); err != nil {
		return nil, nil, err
	}
	out := make([]byte, msgBytes)
	unresolved := make([]bool, msgBytes*8)
	bitsPerCopy := msgBytes * 8
	for bit := 0; bit < bitsPerCopy; bit++ {
		ones, avail := 0, 0
		for c := 0; c < r.N; c++ {
			pos := c*bitsPerCopy + bit
			if erased[pos] {
				continue
			}
			avail++
			ones += int(getBit(payload, pos))
		}
		switch {
		case avail == 0 || 2*ones == avail:
			unresolved[bit] = true
		case 2*ones > avail:
			setBit(out, bit, 1)
		}
	}
	return out, unresolved, nil
}

func decodeErasureScalarHamming(h Hamming74, payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	if err := checkErasureShape(h, payload, erased, msgBytes); err != nil {
		return nil, nil, err
	}
	out := make([]byte, msgBytes)
	unresolved := make([]bool, msgBytes*8)
	bit := 0
	for i := 0; i < msgBytes; i++ {
		var b byte
		for half := 0; half < 2; half++ {
			var cw byte
			var mask byte
			for k := 0; k < 7; k++ {
				if !erased[bit] {
					mask |= 1 << k
					cw |= getBit(payload, bit) << k
				}
				bit++
			}
			nib, ok := mlNibble(cw, mask)
			if !ok {
				for k := 0; k < 4; k++ {
					unresolved[i*8+half*4+k] = true
				}
			}
			b |= nib << (4 * half)
		}
		out[i] = b
	}
	return out, unresolved, nil
}

func decodeErasureScalarComposite(c Composite, payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	if _, ok := c.Inner.(ErasureDecoder); !ok {
		return nil, nil, fmt.Errorf("ecc: inner codec %s has no erasure decoder", c.Inner.Name())
	}
	midLen := c.Outer.EncodedLen(msgBytes)
	mid, midErased, err := DecodeErasureScalar(c.Inner, payload, erased, midLen)
	if err != nil {
		return nil, nil, err
	}
	if _, ok := c.Outer.(ErasureDecoder); ok {
		return DecodeErasureScalar(c.Outer, mid, midErased, msgBytes)
	}
	msg, err := DecodeScalar(c.Outer, mid, msgBytes)
	if err != nil {
		return nil, nil, err
	}
	return msg, make([]bool, msgBytes*8), nil
}

func decodeErasureScalarInterleaver(il Interleaver, payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	if _, ok := il.Next.(ErasureDecoder); !ok {
		return nil, nil, fmt.Errorf("ecc: codec %s has no erasure decoder", il.Next.Name())
	}
	if il.Depth < 1 {
		return nil, nil, fmt.Errorf("ecc: interleaver depth %d < 1", il.Depth)
	}
	if err := checkErasureShape(il, payload, erased, msgBytes); err != nil {
		return nil, nil, err
	}
	n := len(payload) * 8
	p := permFor(il.Depth, n).fwd
	lin := make([]byte, len(payload))
	linErased := make([]bool, n)
	for i := 0; i < n; i++ {
		setBit(lin, i, getBit(payload, int(p[i])))
		linErased[i] = erased[p[i]]
	}
	return DecodeErasureScalar(il.Next, lin, linErased, msgBytes)
}
