package sram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The state section of a version-4 device image: everything an array
// carries beyond its spec, in a fixed little-endian layout.
//
//	seed      u64   must match the array's spec
//	flags     u8    bit 0 powered, bit 1 remanent; no other bit, not both
//	powerOns  u64   the noise-stream counter
//	noiseGen  u8    NoiseGenBoxMuller or NoiseGenZiggurat
//	data      cells/8 bytes, the data plane
//	classes   u32   K ≥ 1 distinct aging tuples
//	table     K × 40 bytes: s0Perm s0Fast s0Slow s1Perm s1Fast s1Slow
//	          as float32 bits, then t0Ref t1Ref as float64 bits
//	index     cells·w/8 bytes, w = bits.Len(K−1): cell i's class in
//	          bits [i·w, (i+1)·w), least significant bit first
//
// A cell's pools and equivalent times depend only on the bits it held
// under each stress and on the shelf history, so cells with the same
// history hold the same floats bit for bit and K is far below the cell
// count (2 after a sliced encoding soak). The section is canonical:
// classes are numbered in first-use order by cell, each table entry is
// distinct and used, and the cell count is a multiple of 8, so the
// index has no padding bits. The same state always gives the same
// bytes, and ReadState rejects any other encoding of it.
const (
	stateHeadLen = 8 + 1 + 8 + 1
	classLen     = 6*4 + 2*8

	flagPowered  = 1 << 0
	flagRemanent = 1 << 1
)

// ErrTruncatedState marks a state section that ends before its layout
// does.
var ErrTruncatedState = errors.New("sram: state section truncated")

// agingClass is a history as raw bits — s0Perm|s0Fast<<32,
// s0Slow|s1Perm<<32, s1Fast|s1Slow<<32, t0Ref, t1Ref — so equal classes
// are bit-identical (±0 and NaN payloads stay distinct), and its five
// words in little-endian order are its table entry.
type agingClass [5]uint64

func pair(lo, hi float32) uint64 {
	return uint64(math.Float32bits(lo)) | uint64(math.Float32bits(hi))<<32
}

func unpair(w uint64) (lo, hi float32) {
	return math.Float32frombits(uint32(w)), math.Float32frombits(uint32(w >> 32))
}

// key returns h's bits.
func (h *history) key() agingClass {
	return agingClass{
		pair(h.s0Perm, h.s0Fast), pair(h.s0Slow, h.s1Perm), pair(h.s1Fast, h.s1Slow),
		math.Float64bits(h.t0Ref), math.Float64bits(h.t1Ref),
	}
}

// history returns the class whose bits c holds.
func (c *agingClass) history() history {
	var h history
	h.s0Perm, h.s0Fast = unpair(c[0])
	h.s0Slow, h.s1Perm = unpair(c[1])
	h.s1Fast, h.s1Slow = unpair(c[2])
	h.t0Ref, h.t1Ref = math.Float64frombits(c[3]), math.Float64frombits(c[4])
	return h
}

// AppendState appends the array's state section to dst. The live class
// table already holds each history once; AppendState only renumbers
// the classes in first-use order by cell, merging classes whose values
// are equal (two histories can reach the same floats), so the section
// is canonical. The equivalent stress times travel with the pools, so a
// restored array continues exactly where this one stands.
func (a *Array) AppendState(dst []byte) []byte {
	var flags byte
	if a.powered {
		flags |= flagPowered
	}
	if a.remanent {
		flags |= flagRemanent
	}
	dst = binary.LittleEndian.AppendUint64(dst, a.spec.Seed)
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, a.powerOns)
	dst = append(dst, byte(a.spec.NoiseGen))
	dst = append(dst, a.data...)

	// Number the classes in first-use order, one map lookup per live
	// class; renum holds each live class's image number plus one. Every
	// live class is used, so the scan stops once all are numbered.
	renum := make([]uint32, len(a.hist))
	seen := make(map[agingClass]uint32, len(a.hist))
	var table []agingClass
	for i, left := 0, len(a.hist); i < a.n && left > 0; i++ {
		c := a.class[i]
		if renum[c] != 0 {
			continue
		}
		k := a.hist[c].key()
		id, ok := seen[k]
		if !ok {
			id = uint32(len(table))
			seen[k] = id
			table = append(table, k)
		}
		renum[c] = id + 1
		left--
	}

	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(table)))
	for _, c := range table {
		for _, w := range c {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	w := uint(bits.Len32(uint32(len(table) - 1)))
	var acc uint64
	var nb uint
	for _, c := range a.class {
		acc |= uint64(renum[c]-1) << nb
		for nb += w; nb >= 8; nb -= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
		}
	}
	return dst
}

// StateLen returns the length of the state section at the front of src
// for an array of cells cells. It reads only the class count, so a
// caller can check a whole image against its payload before it
// allocates the array. A src that ends before the section does is
// ErrTruncatedState.
func StateLen(src []byte, cells int) (int, error) {
	head := stateHeadLen + cells/8
	if len(src) < head+4 {
		return 0, ErrTruncatedState
	}
	k := binary.LittleEndian.Uint32(src[head:])
	if k == 0 || int64(k) > int64(cells) {
		return 0, fmt.Errorf("sram: state section has %d aging classes for %d cells", k, cells)
	}
	n := head + 4 + int(k)*classLen + cells*bits.Len32(k-1)/8
	if len(src) < n {
		return 0, ErrTruncatedState
	}
	return n, nil
}

// classIndex reads the bit-packed class index.
type classIndex struct {
	src  []byte
	w    uint
	mask uint64
	acc  uint64
	nb   uint
}

func newClassIndex(src []byte, classes uint32) classIndex {
	w := uint(bits.Len32(classes - 1))
	return classIndex{src: src, w: w, mask: 1<<w - 1}
}

func (x *classIndex) next() uint32 {
	for x.nb < x.w {
		x.acc |= uint64(x.src[0]) << x.nb
		x.src = x.src[1:]
		x.nb += 8
	}
	id := uint32(x.acc & x.mask)
	x.acc >>= x.w
	x.nb -= x.w
	return id
}

// ReadState restores the array from the state section at the front of
// src, written by AppendState on an array with the same spec, and
// returns the bytes after it. The whole section is validated before
// anything is written, so on error the array is unchanged.
func (a *Array) ReadState(src []byte) ([]byte, error) {
	n, err := StateLen(src, a.n)
	if err != nil {
		return nil, err
	}
	sec, rest := src[:n], src[n:]
	if seed := binary.LittleEndian.Uint64(sec); seed != a.spec.Seed {
		return nil, fmt.Errorf("%w: seed %d vs %d", ErrStateMismatch, seed, a.spec.Seed)
	}
	flags := sec[8]
	if flags&^(flagPowered|flagRemanent) != 0 || flags == flagPowered|flagRemanent {
		return nil, fmt.Errorf("sram: state section has flags %#02x", flags)
	}
	powerOns := binary.LittleEndian.Uint64(sec[9:])
	gen := int(sec[17])
	if gen != NoiseGenBoxMuller && gen != NoiseGenZiggurat {
		return nil, fmt.Errorf("sram: state section uses unknown noise-generation version %d", gen)
	}
	data := sec[stateHeadLen : stateHeadLen+a.n/8]
	k := binary.LittleEndian.Uint32(sec[stateHeadLen+a.n/8:])
	table := sec[stateHeadLen+a.n/8+4:]
	index := table[int(k)*classLen:]

	classes := make([]agingClass, k)
	distinct := make(map[agingClass]struct{}, k)
	for c := range classes {
		for w := range classes[c] {
			classes[c][w] = binary.LittleEndian.Uint64(table[c*classLen+8*w:])
		}
		if _, dup := distinct[classes[c]]; dup {
			return nil, fmt.Errorf("sram: state section repeats aging class %d", c)
		}
		distinct[classes[c]] = struct{}{}
	}
	used := uint32(0)
	x := newClassIndex(index, k)
	for i := 0; i < a.n; i++ {
		switch id := x.next(); {
		case id >= k:
			return nil, fmt.Errorf("sram: cell %d has aging class %d of %d", i, id, k)
		case id > used:
			return nil, fmt.Errorf("sram: cell %d uses aging class %d before class %d", i, id, used)
		case id == used:
			used++
		}
	}
	if used != k {
		return nil, fmt.Errorf("sram: state section has %d aging classes, cells use %d", k, used)
	}

	// The array adopts the image's table as it is.
	hist := make([]history, k)
	for c := range classes {
		hist[c] = classes[c].history()
	}
	x = newClassIndex(index, k)
	for i := range a.class {
		a.class[i] = x.next()
	}
	a.hist = hist
	copy(a.data, data)
	a.powered = flags&flagPowered != 0
	a.remanent = flags&flagRemanent != 0
	a.powerOns = powerOns
	a.setNoiseGen(gen)
	a.biasFresh = false
	return rest, nil
}

// EquivalentTimes returns cell i's tracked equivalent stress times for
// the 0- and 1-holding directions (hours at the reference rate; −1
// marks a stale entry that the next growth re-derives). Used by tests
// and state pins.
func (a *Array) EquivalentTimes(i int) (t0, t1 float64) {
	h := &a.hist[a.class[i]]
	return h.t0Ref, h.t1Ref
}
