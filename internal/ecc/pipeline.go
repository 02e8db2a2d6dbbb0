package ecc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Word-parallel decode machinery.
//
// The paper's readback chain (§4.4: deinterleave → Hamming(7,4) or
// repetition ECC → digest verify) was originally bit-at-a-time: getBit/
// setBit per coded bit, a fresh permutation slice per interleaver call,
// and a 16-way codeword search per Hamming nibble. This file replaces
// the inner loops with table- and word-parallel equivalents while the
// Codec interface stays untouched (the original paths live on as the
// DecodeScalar oracles in scalar_test.go):
//
//   - Hamming(7,4) decodes through a 2^14-entry LUT: one lookup per
//     *pair* of codewords performs syndrome computation, correction and
//     data-bit extraction for a whole output byte. The table is built
//     from decodeNibble itself, so LUT == scalar by construction.
//   - Repetition majority runs 64 message bits per step: each copy is
//     byte-aligned (copies are whole-message blocks), so copy words
//     ripple-add into bit-sliced counters and a word comparator turns
//     the sliced counts into a majority word — the same counter idiom
//     the capture kernel uses for vote accumulation.
//   - Interleaver permutations are cached per (depth, n) — forward and
//     inverse — and applied with a gather loop that assembles 8 bits
//     per step instead of a read-modify-write per bit.
//
// Pipeline composes these into a zero-alloc decode of a whole codec
// stack: scratch for every stage is owned by the Pipeline, so a warm
// DecodeInto never touches the heap.

// --- Hamming(7,4) lookup tables ---------------------------------------------

// h74 holds the Hamming LUTs, built once on first use. decLUT maps 14
// payload bits (two 7-bit codewords, little-endian bit order) to the
// decoded byte; decLUT7 maps one codeword to its data nibble; encLUT
// maps a message byte to its 14-bit codeword pair.
var h74 struct {
	once    sync.Once
	decLUT  []byte // [1 << 14]
	decLUT7 [128]byte
	encLUT  [256]uint16
}

func h74Tables() {
	h74.once.Do(func() {
		for cw := 0; cw < 128; cw++ {
			h74.decLUT7[cw] = decodeNibble(byte(cw))
		}
		h74.decLUT = make([]byte, 1<<14)
		for v := 0; v < 1<<14; v++ {
			h74.decLUT[v] = h74.decLUT7[v&0x7F] | h74.decLUT7[v>>7]<<4
		}
		for b := 0; b < 256; b++ {
			h74.encLUT[b] = uint16(encodeNibble(byte(b&0x0F))) |
				uint16(encodeNibble(byte(b>>4)))<<7
		}
	})
}

// --- interleaver permutation cache ------------------------------------------

// permKey identifies one interleave geometry: the block depth and the
// payload size in bits.
type permKey struct {
	depth int
	n     int
}

// permTable holds both directions of the interleave: fwd[src] is the
// interleaved slot of linear bit src (exactly what Interleaver.permute
// used to rebuild per call), inv is its inverse. int32 halves the cache
// footprint; payloads are well under 2^31 bits.
type permTable struct {
	fwd []int32
	inv []int32
}

var permCache sync.Map // permKey -> *permTable

// permFor returns the cached permutation tables for (depth, n bits),
// computing them once per geometry. Concurrent first calls may race to
// build the same table; the loser's copy is discarded by LoadOrStore.
func permFor(depth, n int) *permTable {
	key := permKey{depth, n}
	if t, ok := permCache.Load(key); ok {
		return t.(*permTable)
	}
	t := &permTable{fwd: make([]int32, n), inv: make([]int32, n)}
	cols := (n + depth - 1) / depth
	k := int32(0)
	for c := 0; c < cols; c++ {
		for r := 0; r < depth; r++ {
			src := r*cols + c
			if src < n {
				t.fwd[src] = k
				t.inv[k] = int32(src)
				k++
			}
		}
	}
	actual, _ := permCache.LoadOrStore(key, t)
	return actual.(*permTable)
}

// gatherBits fills dst with n bits gathered from src at positions
// perm[0..n), 8 bits per output byte: dst bit i = src bit perm[i].
// Trailing bits of a partial final byte are left zero.
func gatherBits(dst, src []byte, perm []int32, n int) {
	i := 0
	for ; i+8 <= n; i += 8 {
		p := perm[i : i+8 : i+8]
		b := src[p[0]>>3] >> (p[0] & 7) & 1
		b |= src[p[1]>>3] >> (p[1] & 7) & 1 << 1
		b |= src[p[2]>>3] >> (p[2] & 7) & 1 << 2
		b |= src[p[3]>>3] >> (p[3] & 7) & 1 << 3
		b |= src[p[4]>>3] >> (p[4] & 7) & 1 << 4
		b |= src[p[5]>>3] >> (p[5] & 7) & 1 << 5
		b |= src[p[6]>>3] >> (p[6] & 7) & 1 << 6
		b |= src[p[7]>>3] >> (p[7] & 7) & 1 << 7
		dst[i>>3] = b
	}
	if i < n {
		var b byte
		for j := 0; i+j < n; j++ {
			p := perm[i+j]
			b |= src[p>>3] >> (p & 7) & 1 << j
		}
		dst[i>>3] = b
	}
}

// --- word-parallel Hamming decode -------------------------------------------

// hammingDecodeInto LUT-decodes payload (2·msgBytes codewords) into
// dst[:msgBytes]: a 64-bit shift register refills from the payload
// stream and every 14-bit chunk indexes the decode table directly.
func hammingDecodeInto(dst, payload []byte, msgBytes int) {
	h74Tables()
	lut := h74.decLUT
	var acc uint64
	nbits := uint(0)
	pos := 0
	for i := 0; i < msgBytes; i++ {
		for nbits < 14 && pos < len(payload) {
			acc |= uint64(payload[pos]) << nbits
			nbits += 8
			pos++
		}
		dst[i] = lut[acc&0x3FFF]
		acc >>= 14
		nbits -= 14
	}
}

// hammingEncodeInto LUT-encodes msg into dst (len EncodedLen(len(msg))):
// one table hit emits both codewords of a message byte into a bit
// accumulator that drains whole bytes.
func hammingEncodeInto(dst []byte, msg []byte) {
	h74Tables()
	var acc uint64
	nbits := uint(0)
	pos := 0
	for _, b := range msg {
		acc |= uint64(h74.encLUT[b]) << nbits
		nbits += 14
		for nbits >= 8 {
			dst[pos] = byte(acc)
			acc >>= 8
			nbits -= 8
			pos++
		}
	}
	if nbits > 0 {
		dst[pos] = byte(acc)
	}
}

// --- word-parallel repetition majority --------------------------------------

// repMajorityInto majority-votes n byte-aligned copies of a
// msgBytes-long message into dst[:msgBytes], 64 bits per step: copy
// words ripple-add into bit-sliced counters (slice b of the counter
// word holds bit b of each lane's count) and a sliced comparator
// extracts count ≥ threshold lanes in one pass. Exactly equivalent to
// the per-bit vote of Repetition.DecodeScalar — the count and threshold
// are the same integers, only 64 lanes resolve at once.
func repMajorityInto(dst, payload []byte, n, msgBytes int) {
	threshold := uint64(n/2 + 1)
	nb := bits.Len(uint(n))
	var off int
	for off = 0; off+8 <= msgBytes; off += 8 {
		var s [16]uint64
		for c := 0; c < n; c++ {
			rippleAdd(&s, binary.LittleEndian.Uint64(payload[c*msgBytes+off:]))
		}
		binary.LittleEndian.PutUint64(dst[off:], sliceGE(&s, nb, threshold))
	}
	if off < msgBytes {
		var s [16]uint64
		for c := 0; c < n; c++ {
			var w uint64
			for j := 0; off+j < msgBytes; j++ {
				w |= uint64(payload[c*msgBytes+off+j]) << (8 * j)
			}
			rippleAdd(&s, w)
		}
		maj := sliceGE(&s, nb, threshold)
		for j := 0; off+j < msgBytes; j++ {
			dst[off+j] = byte(maj >> (8 * j))
		}
	}
}

// rippleAdd adds one vote word into the bit-sliced counters: the carry
// chain is the textbook half-adder ripple, bounded by the counter width
// (counts never exceed the copy count, so the loop terminates fast).
func rippleAdd(s *[16]uint64, v uint64) {
	for b := 0; v != 0; b++ {
		t := s[b]
		s[b] = t ^ v
		v &= t
	}
}

// sliceGE compares bit-sliced lane counts against a constant threshold,
// returning a mask of lanes with count ≥ t. nb is the count width in
// bits. MSB-first: a lane leaves the "still equal" set the first time
// its count bit differs from the threshold bit, in favor of gt when the
// count bit is the high one.
func sliceGE(s *[16]uint64, nb int, t uint64) uint64 {
	eq := ^uint64(0)
	gt := uint64(0)
	for b := nb - 1; b >= 0; b-- {
		var tb uint64
		if t>>uint(b)&1 == 1 {
			tb = ^uint64(0)
		}
		c := s[b]
		gt |= eq & c &^ tb
		eq &= ^(c ^ tb)
	}
	return gt | eq
}

// --- zero-alloc pipeline ----------------------------------------------------

// Pipeline is a compiled decoder for one codec stack: it owns per-stage
// scratch buffers so a warm DecodeInto allocates nothing, and it walks
// the stack with the word-parallel fast paths above. A Pipeline is NOT
// safe for concurrent use — batch decoders keep one per worker.
type Pipeline struct {
	codec Codec
	// bufs[d] is the intermediate buffer for stack depth d; sized on
	// first use per (codec, msgBytes) shape and reused thereafter.
	bufs [][]byte
}

// NewPipeline compiles a decode pipeline for the codec. Table and
// permutation builds are shared process-wide, so compiling is cheap;
// the Pipeline itself only carries scratch.
func NewPipeline(c Codec) *Pipeline {
	if c == nil {
		c = Identity{}
	}
	return &Pipeline{codec: c}
}

// Codec returns the codec the pipeline was compiled for.
func (p *Pipeline) Codec() Codec { return p.codec }

// buf returns the reusable scratch buffer for stack depth d, at least n
// bytes long and zero-padded growth.
func (p *Pipeline) buf(d, n int) []byte {
	for len(p.bufs) <= d {
		p.bufs = append(p.bufs, nil)
	}
	if cap(p.bufs[d]) < n {
		p.bufs[d] = make([]byte, n)
	}
	return p.bufs[d][:n]
}

// Decode runs the pipeline, allocating the result (convenience form of
// DecodeInto).
func (p *Pipeline) Decode(payload []byte, msgBytes int) ([]byte, error) {
	msg := make([]byte, msgBytes)
	if err := p.DecodeInto(msg, payload, msgBytes); err != nil {
		return nil, err
	}
	return msg, nil
}

// DecodeInto decodes payload into dst[:msgBytes] through the compiled
// stack. Warm calls are alloc-free; the result is bit-identical to
// codec.Decode (and therefore to DecodeScalar — the property suite and
// FuzzDecodePipeline enforce both).
func (p *Pipeline) DecodeInto(dst, payload []byte, msgBytes int) error {
	if len(dst) < msgBytes {
		return fmt.Errorf("ecc: pipeline dst holds %d bytes, message needs %d", len(dst), msgBytes)
	}
	return p.decodeInto(p.codec, dst[:msgBytes], payload, msgBytes, 0)
}

func (p *Pipeline) decodeInto(c Codec, dst, payload []byte, msgBytes, depth int) error {
	switch cc := c.(type) {
	case Identity:
		if len(payload) != msgBytes {
			return ErrPayloadSize
		}
		copy(dst, payload)
		return nil
	case Repetition:
		if len(payload) != msgBytes*cc.N {
			return ErrPayloadSize
		}
		repMajorityInto(dst, payload, cc.N, msgBytes)
		return nil
	case Hamming74:
		if len(payload) != cc.EncodedLen(msgBytes) {
			return ErrPayloadSize
		}
		hammingDecodeInto(dst, payload, msgBytes)
		return nil
	case Composite:
		// Size validation happens in the inner stage so error ordering
		// matches Composite.Decode exactly.
		midLen := cc.Outer.EncodedLen(msgBytes)
		mid := p.buf(depth, midLen)
		if err := p.decodeInto(cc.Inner, mid, payload, midLen, depth+1); err != nil {
			return err
		}
		return p.decodeInto(cc.Outer, dst, mid, msgBytes, depth+1)
	case Interleaver:
		if cc.Depth < 1 {
			return fmt.Errorf("ecc: interleaver depth %d < 1", cc.Depth)
		}
		if len(payload) != cc.EncodedLen(msgBytes) {
			return ErrPayloadSize
		}
		n := len(payload) * 8
		lin := p.buf(depth, len(payload))
		gatherBits(lin, payload, permFor(cc.Depth, n).fwd, n)
		return p.decodeInto(cc.Next, dst, lin, msgBytes, depth+1)
	default:
		// Unknown codec: fall back to its own Decode (allocates).
		msg, err := c.Decode(payload, msgBytes)
		if err != nil {
			return err
		}
		copy(dst, msg)
		return nil
	}
}
