package ecc

import (
	"fmt"
	"math/bits"
	"sync"
)

// ErasureDecoder is the optional erasure-channel interface. The adaptive
// decoder marks coded bits whose vote confidence falls inside a dead zone
// as *erasures* — "the channel gave no information here" — instead of
// forcing them to a hard 0/1. Erasures are strictly better information
// than coin-flip bits: a distance-d code corrects t errors and e erasures
// whenever 2t+e < d, so Hamming(7,4) absorbs two erasures per codeword
// where it could only absorb one error.
//
// payload holds the hard decision for every coded bit (erased positions
// carry an arbitrary value); erased is the per-coded-bit mask, length
// 8×EncodedLen(msgBytes). The returned unresolved mask (length
// 8×msgBytes) marks message bits the code could not pin down — they are
// 0-filled in msg, and callers treat them as residual uncertainty.
// Like Decode, DecodeErasure only reads payload and erased.
type ErasureDecoder interface {
	Codec
	DecodeErasure(payload []byte, erased []bool, msgBytes int) (msg []byte, unresolved []bool, err error)
}

// checkErasureShape validates the (payload, erased) pair against the
// codec's expansion for msgBytes.
func checkErasureShape(c Codec, payload []byte, erased []bool, msgBytes int) error {
	if len(payload) != c.EncodedLen(msgBytes) {
		return ErrPayloadSize
	}
	if len(erased) != len(payload)*8 {
		return fmt.Errorf("ecc: erasure mask has %d bits for a %d-byte payload", len(erased), len(payload))
	}
	return nil
}

// DecodeErasure implements ErasureDecoder for Identity: non-erased bits
// pass through, erased bits stay unresolved.
func (id Identity) DecodeErasure(payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
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

// DecodeErasure implements ErasureDecoder for the repetition code: each
// message bit is majority-voted over its non-erased copies only. A bit
// with no surviving copies — or an exact tie among them — stays
// unresolved.
func (r Repetition) DecodeErasure(payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
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

// h74Erasure holds the maximum-likelihood erasure LUT, built once on
// first use: index (mask<<7 | cw) → data nibble in bits 0..3 with bit 4
// set when the choice is unambiguous. 2^14 entries precompute every
// mlNibble outcome, so the erasure rung pays one lookup per codeword
// instead of a 16-codeword distance search.
var h74Erasure struct {
	once sync.Once
	lut  []byte // [1 << 14]: mlNibble(cw, mask) for every pair
}

const h74ErasureOK = 0x10

func h74ErasureTable() {
	h74Erasure.once.Do(func() {
		h74Erasure.lut = make([]byte, 1<<14)
		for mask := 0; mask < 128; mask++ {
			for cw := 0; cw < 128; cw++ {
				nib, ok := mlNibble(byte(cw), byte(mask))
				v := nib
				if ok {
					v |= h74ErasureOK
				}
				h74Erasure.lut[mask<<7|cw] = v
			}
		}
	})
}

// DecodeErasure implements ErasureDecoder for Hamming(7,4) by
// maximum-likelihood decoding over the 16 codewords: each codeword's
// distance to the received bits is measured on non-erased positions only,
// and the nearest wins. With e erasures and t errors this succeeds
// whenever 2t+e < 3 — in particular two erasures and no errors, which a
// plain syndrome decode would miscorrect. An ambiguous codeword (distance
// tie between different data nibbles, or all positions erased) marks its
// four data bits unresolved.
//
// Fast path: the erasure mask is packed to one bit per coded bit, and
// both streams feed the same 14-bit reader. A chunk with no erasures —
// the overwhelmingly common case late in a campaign — decodes both
// codewords through the hard-decision LUT in one hit (the Hamming code
// is perfect, so full-mask ML equals syndrome decode); otherwise each
// codeword is one lookup in the precomputed ML table. Identical to the
// scalar search by construction (the table is built from mlNibble).
func (h Hamming74) DecodeErasure(payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	if err := checkErasureShape(h, payload, erased, msgBytes); err != nil {
		return nil, nil, err
	}
	h74Tables()
	h74ErasureTable()
	out := make([]byte, msgBytes)
	unresolved := make([]bool, msgBytes*8)

	// Pack the mask stream: bit i of packed = erased[i].
	packed := make([]byte, len(payload))
	packBools(packed, erased)

	var accP, accM uint64 // payload and mask bit accumulators
	nbits := uint(0)
	pos := 0
	for i := 0; i < msgBytes; i++ {
		for nbits < 14 && pos < len(payload) {
			accP |= uint64(payload[pos]) << nbits
			accM |= uint64(packed[pos]) << nbits
			nbits += 8
			pos++
		}
		chunkP, chunkM := accP&0x3FFF, accM&0x3FFF
		accP >>= 14
		accM >>= 14
		nbits -= 14
		if chunkM == 0 {
			out[i] = h74.decLUT[chunkP]
			continue
		}
		var b byte
		for half := 0; half < 2; half++ {
			cw := chunkP >> (7 * half) & 0x7F
			mask := ^chunkM >> (7 * half) & 0x7F // LUT mask bit 1 = usable
			v := h74Erasure.lut[mask<<7|(cw&mask)]
			if v&h74ErasureOK == 0 {
				unresolved[i*8+half*4] = true
				unresolved[i*8+half*4+1] = true
				unresolved[i*8+half*4+2] = true
				unresolved[i*8+half*4+3] = true
			}
			b |= (v & 0x0F) << (4 * half)
		}
		out[i] = b
	}
	return out, unresolved, nil
}

// packBools packs mask[i] into bit i of dst; trailing dst bytes beyond
// the mask stay zero.
func packBools(dst []byte, mask []bool) {
	i := 0
	for ; i+8 <= len(mask); i += 8 {
		m := mask[i : i+8 : i+8]
		var b byte
		if m[0] {
			b = 1
		}
		if m[1] {
			b |= 1 << 1
		}
		if m[2] {
			b |= 1 << 2
		}
		if m[3] {
			b |= 1 << 3
		}
		if m[4] {
			b |= 1 << 4
		}
		if m[5] {
			b |= 1 << 5
		}
		if m[6] {
			b |= 1 << 6
		}
		if m[7] {
			b |= 1 << 7
		}
		dst[i>>3] = b
	}
	if i < len(mask) {
		var b byte
		for j := 0; i+j < len(mask); j++ {
			if mask[i+j] {
				b |= 1 << j
			}
		}
		dst[i>>3] = b
	}
}

// mlNibble returns the data nibble whose codeword is nearest to cw on the
// positions selected by mask; ok is false when the choice is ambiguous
// (distance tie, or no usable positions at all).
func mlNibble(cw, mask byte) (nib byte, ok bool) {
	if mask == 0 {
		return 0, false
	}
	best, bestDist, ties := byte(0), 8, 0
	for d := byte(0); d < 16; d++ {
		dist := bits.OnesCount8((encodeNibble(d) ^ cw) & mask)
		switch {
		case dist < bestDist:
			best, bestDist, ties = d, dist, 1
		case dist == bestDist:
			ties++
		}
	}
	return best, ties == 1
}

// DecodeErasure implements ErasureDecoder for Composite when the inner
// (channel-facing) codec supports erasures: the inner code consumes the
// channel mask and its unresolved message bits become *erasures for the
// outer code* — exactly how concatenated codes pass soft information
// upward. An outer codec without erasure support falls back to its hard
// decode over the 0-filled intermediate.
func (c Composite) DecodeErasure(payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	inner, ok := c.Inner.(ErasureDecoder)
	if !ok {
		return nil, nil, fmt.Errorf("ecc: inner codec %s has no erasure decoder", c.Inner.Name())
	}
	midLen := c.Outer.EncodedLen(msgBytes)
	mid, midErased, err := inner.DecodeErasure(payload, erased, midLen)
	if err != nil {
		return nil, nil, err
	}
	if outer, ok := c.Outer.(ErasureDecoder); ok {
		return outer.DecodeErasure(mid, midErased, msgBytes)
	}
	msg, err := c.Outer.Decode(mid, msgBytes)
	if err != nil {
		return nil, nil, err
	}
	return msg, make([]bool, msgBytes*8), nil
}

// DecodeErasure implements ErasureDecoder for Interleaver by
// de-interleaving both the payload and the erasure mask before
// delegating.
func (il Interleaver) DecodeErasure(payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	next, ok := il.Next.(ErasureDecoder)
	if !ok {
		return nil, nil, fmt.Errorf("ecc: codec %s has no erasure decoder", il.Next.Name())
	}
	if il.Depth < 1 {
		return nil, nil, fmt.Errorf("ecc: interleaver depth %d < 1", il.Depth)
	}
	if err := checkErasureShape(il, payload, erased, msgBytes); err != nil {
		return nil, nil, err
	}
	n := len(payload) * 8
	t := permFor(il.Depth, n)
	lin := make([]byte, len(payload))
	gatherBits(lin, payload, t.fwd, n)
	linErased := make([]bool, n)
	for i, p := range t.fwd {
		linErased[i] = erased[p]
	}
	return next.DecodeErasure(lin, linErased, msgBytes)
}

// CountUnresolved returns how many bits an unresolved mask leaves open —
// the residual uncertainty a DecodeReport records for the erasure rung.
func CountUnresolved(mask []bool) int {
	n := 0
	for _, u := range mask {
		if u {
			n++
		}
	}
	return n
}

// Interface checks.
var (
	_ ErasureDecoder = Identity{}
	_ ErasureDecoder = Repetition{}
	_ ErasureDecoder = Hamming74{}
	_ ErasureDecoder = Composite{}
	_ ErasureDecoder = Interleaver{}
)
