package sram

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// VotePlane holds a capture burst's per-cell vote counts bit-sliced,
// the layout the capture kernel counts in: slice b is a word plane (64
// cells per uint64, cell i at bit i%64 of word i/64) holding bit b of
// every cell's count. A burst of n captures needs ⌈log2(n+1)⌉ slices,
// so a 3-capture plane is 2 bits per cell where a []uint16 is 16, and
// a majority decision or an accumulation works on 64 cells per word
// operation. The zero value is an empty plane;
// Array.CaptureVotePlaneInto sizes it, and reuses its buffers from
// burst to burst.
type VotePlane struct {
	cells    int
	captures int // every count is at most captures
	nb       int // slices in use: bits.Len(captures)
	slices   [16][]uint64
}

// reset sizes p for cells cells and counts up to captures (at most
// MaxCaptures), all zero.
func (p *VotePlane) reset(cells, captures int) {
	p.cells, p.captures, p.nb = cells, captures, 0
	p.grow(bits.Len(uint(captures)))
}

// grow extends p to nb zeroed slices.
func (p *VotePlane) grow(nb int) {
	nw := (p.cells + 63) / 64
	for ; p.nb < nb; p.nb++ {
		s := p.slices[p.nb]
		if cap(s) < nw {
			s = make([]uint64, nw)
		}
		s = s[:nw]
		clear(s)
		p.slices[p.nb] = s
	}
}

// Cells returns the number of cells the plane counts.
func (p *VotePlane) Cells() int { return p.cells }

// Count returns cell i's vote count.
func (p *VotePlane) Count(i int) uint16 {
	w, s := i>>6, uint(i&63)
	var c uint16
	for b := 0; b < p.nb; b++ {
		c |= uint16(p.slices[b][w]>>s&1) << b
	}
	return c
}

// SetCount overwrites cell i's vote count with v, raising the plane's
// capture count to v if v exceeds it.
func (p *VotePlane) SetCount(i int, v uint16) {
	if int(v) > p.captures {
		p.captures = int(v)
		p.grow(bits.Len16(v))
	}
	w, m := i>>6, uint64(1)<<uint(i&63)
	for b := 0; b < p.nb; b++ {
		if v>>b&1 != 0 {
			p.slices[b][w] |= m
		} else {
			p.slices[b][w] &^= m
		}
	}
}

// CountsInto unpacks the counts of cells [0, len(dst)) into dst;
// len(dst) must not exceed Cells().
func (p *VotePlane) CountsInto(dst []uint16) {
	var sl [16]uint64
	for w := 0; w*64 < len(dst); w++ {
		for b := 0; b < p.nb; b++ {
			sl[b] = p.slices[b][w]
		}
		out := dst[w*64 : min(w*64+64, len(dst))]
		for j := range out {
			var c uint64
			for b := p.nb - 1; b >= 0; b-- {
				c = c<<1 | sl[b]>>uint(j)&1
			}
			out[j] = uint16(c)
		}
	}
}

// Add accumulates q's counts into p with a bit-sliced ripple-add, 64
// cells per word operation: afterwards each count of p is the sum of
// the two, out of the summed captures. The planes must count the same
// cells, and the summed captures may not exceed MaxCaptures.
func (p *VotePlane) Add(q *VotePlane) error {
	if p.cells != q.cells {
		return fmt.Errorf("sram: adding a %d-cell vote plane to a %d-cell one", q.cells, p.cells)
	}
	total := p.captures + q.captures
	if total > MaxCaptures {
		return &CaptureCountError{Captures: total}
	}
	p.grow(bits.Len(uint(total)))
	for w := 0; w < (p.cells+63)/64; w++ {
		var carry uint64
		for b := 0; b < p.nb; b++ {
			var y uint64
			if b < q.nb {
				y = q.slices[b][w]
			} else if carry == 0 {
				break
			}
			x := p.slices[b][w]
			s := x ^ y
			p.slices[b][w] = s ^ carry
			carry = x&y | carry&s
		}
	}
	p.captures = total
	return nil
}

// addBits adds one vote to every cell whose bit is set in the
// bit-packed plane data (bit i is data[i/8]>>(i%8)): a remanent first
// capture counted on top of the burst's races. Every count must stay
// within the plane's capture count.
func (p *VotePlane) addBits(data []byte) {
	for w := 0; w*8 < len(data); w++ {
		var buf [8]byte
		copy(buf[:], data[w*8:])
		carry := binary.LittleEndian.Uint64(buf[:])
		for b := 0; carry != 0 && b < p.nb; b++ {
			s := p.slices[b][w]
			p.slices[b][w] = s ^ carry
			carry &= s
		}
	}
}

// AtLeastInto writes, for cells [0, 8·len(dst)), whether each count is
// at least t — bit i of dst is cell i, LSB-first like the data plane.
// With t = ⌊n/2⌋+1 it is the n-capture majority. 8·len(dst) must not
// exceed Cells().
func (p *VotePlane) AtLeastInto(dst []byte, t int) { p.compareInto(dst, t, 0) }

// BelowInto is the complement of AtLeastInto: bit i of dst is set when
// cell i's count is below t. With t = ⌈n/2⌉ it is the receiver's
// payload bit, ¬(power-on majority).
func (p *VotePlane) BelowInto(dst []byte, t int) { p.compareInto(dst, t, ^uint64(0)) }

// compareInto writes (count ≥ t) XOR flip for cells [0, 8·len(dst)).
// It adds the constant 2^K − t to every count (K bits covering both)
// and keeps only the carry out of bit K, which is set exactly when
// count ≥ t: one AND or OR per slice per 64 cells, starting at the
// lowest set bit of the constant (below it the carry is still 0).
func (p *VotePlane) compareInto(dst []byte, t int, flip uint64) {
	fill := func(ge uint64) {
		for i := range dst {
			dst[i] = byte(ge ^ flip)
		}
	}
	if t <= 0 {
		fill(^uint64(0))
		return
	}
	k := max(p.nb, bits.Len(uint(t)))
	c := uint(1<<uint(k) - t) // 1 ≤ c < 2^k
	b0 := bits.TrailingZeros(c)
	if b0 >= p.nb {
		fill(0) // t is a multiple of 2^nb, above every count
		return
	}
	// Bits of c above the counts' width meet zero slices: a 1 keeps
	// the carry, a 0 clears it for good.
	for b := p.nb; b < k; b++ {
		if c>>uint(b)&1 == 0 {
			fill(0)
			return
		}
	}
	nb := p.nb
	geWord := func(w int) uint64 {
		cy := p.slices[b0][w]
		for b := b0 + 1; b < nb; b++ {
			if c>>uint(b)&1 != 0 {
				cy |= p.slices[b][w]
			} else {
				cy &= p.slices[b][w]
			}
		}
		return cy ^ flip
	}
	full := len(dst) / 8
	for w := 0; w < full; w++ {
		binary.LittleEndian.PutUint64(dst[w*8:], geWord(w))
	}
	if full*8 < len(dst) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], geWord(full))
		copy(dst[full*8:], buf[:])
	}
}
