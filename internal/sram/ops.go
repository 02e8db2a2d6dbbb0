package sram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"invisiblebits/internal/analog"
)

// noiseSigmaAt scales the per-power-on thermal noise to tempC (√T law).
func (a *Array) noiseSigmaAt(tempC float64) float64 {
	return a.spec.NoiseSigmaMv *
		math.Sqrt((tempC+273.15)/(a.spec.NoiseTempRefC+273.15))
}

// Errors returned by digital and power operations.
var (
	ErrUnpowered = errors.New("sram: operation requires power")
	ErrPowered   = errors.New("sram: array already powered")
)

// PowerOn applies the supply ramp at temperature tempC and resolves every
// cell's power-on race. It returns a copy of the resulting state (which
// also becomes the array's digital contents, exactly as on real hardware
// where "SRAM embedded within the device retains its power-on state until
// software overwrites it", §2).
//
// PowerOn on an already-powered array is an error: real hardware cannot
// re-run the race without dropping the supply first.
func (a *Array) PowerOn(tempC float64) ([]byte, error) {
	return a.PowerOnContext(context.Background(), tempC)
}

// PowerOnContext is PowerOn with cancellation: the race checks ctx
// between dispatched chunks, so a fleet sweep can abandon a fingerprint
// read mid-race. On cancellation the data plane is partially written and
// the array is left unpowered; the consumed power-on counter is not
// rewound (matching captureBurst), so the next power-on runs a fresh,
// fully clean race.
func (a *Array) PowerOnContext(ctx context.Context, tempC float64) ([]byte, error) {
	if a.powered {
		return nil, ErrPowered
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a.remanent {
		// Remanence: the nodes never discharged, so the previous contents
		// survive the power cycle and no race is run.
		a.remanent = false
		a.powered = true
		out := make([]byte, len(a.data))
		copy(out, a.data)
		return out, nil
	}
	// A power-on is a one-capture burst through the word-parallel kernel:
	// deterministic cells resolve by plane, noisy cells by one packed
	// race, consuming exactly one counter. It builds only the data
	// plane. Identical for any worker count or chunk size
	// (counter-derived noise).
	if err := a.captureBurstInto(ctx, 1, tempC, nil); err != nil {
		return nil, err
	}
	out := make([]byte, len(a.data))
	copy(out, a.data)
	return out, nil
}

// PowerOff drops the supply. If dischargeFully is true the caller drives
// the rails to ground (as the paper's rig does: "all of our measurements
// eliminate the SRAM data remanence effect by driving the supply voltage
// of the device to the ground state", §5) and the stored state is lost.
// If false, a rapid power cycle leaves charge on the nodes and the next
// PowerOn returns the previous contents unchanged — the remanence effect.
func (a *Array) PowerOff(dischargeFully bool) {
	if !a.powered {
		return
	}
	a.powered = false
	if !dischargeFully {
		a.remanent = true
		return
	}
	a.remanent = false
}

// PowerCycle is the receiver's capture primitive: discharge-off then on.
func (a *Array) PowerCycle(tempC float64) ([]byte, error) {
	a.PowerOff(true)
	return a.PowerOn(tempC)
}

// Write replaces the digital contents. Short data is an error — software
// always knows the SRAM size it is writing.
func (a *Array) Write(data []byte) error {
	if !a.powered {
		return ErrUnpowered
	}
	if len(data) != len(a.data) {
		return fmt.Errorf("sram: write of %d bytes into %d-byte array", len(data), len(a.data))
	}
	copy(a.data, data)
	return nil
}

// WriteAt stores data at byte offset off, leaving the rest untouched.
func (a *Array) WriteAt(off int, data []byte) error {
	if !a.powered {
		return ErrUnpowered
	}
	if off < 0 || off+len(data) > len(a.data) {
		return fmt.Errorf("sram: write [%d, %d) out of bounds for %d-byte array",
			off, off+len(data), len(a.data))
	}
	copy(a.data[off:], data)
	return nil
}

// Read returns a copy of the digital contents.
func (a *Array) Read() ([]byte, error) {
	if !a.powered {
		return nil, ErrUnpowered
	}
	out := make([]byte, len(a.data))
	copy(out, a.data)
	return out, nil
}

// ByteAt returns the digital byte at offset off (for the CPU bus).
func (a *Array) ByteAt(off int) (byte, error) {
	if !a.powered {
		return 0, ErrUnpowered
	}
	if off < 0 || off >= len(a.data) {
		return 0, fmt.Errorf("sram: byte read at %d out of range", off)
	}
	return a.data[off], nil
}

// SetByteAt writes the digital byte at offset off (for the CPU bus).
func (a *Array) SetByteAt(off int, b byte) error {
	if !a.powered {
		return ErrUnpowered
	}
	if off < 0 || off >= len(a.data) {
		return fmt.Errorf("sram: byte write at %d out of range", off)
	}
	a.data[off] = b
	return nil
}

// Fill writes the same byte everywhere (the all-0s/all-1s stress patterns
// of Fig. 3 and Table 2).
func (a *Array) Fill(b byte) error {
	if !a.powered {
		return ErrUnpowered
	}
	for i := range a.data {
		a.data[i] = b
	}
	return nil
}

// Stress ages the array for hours under conditions c while it holds its
// current digital contents. Each cell's active direction accumulates
// stress; the opposite direction's recoverable pools relax (its PMOS is
// unstressed for the duration). This is the paper's data-directed aging
// (§2.2) and the core of the encoding step (Algorithm 1, lines 5–6).
//
// A cell's next state depends only on its class and the bit it holds,
// so Stress grows each used (class, bit) pair once and moves every cell
// to its pair's successor class:
//
//  1. one parallel pass over the cells marks the used pairs (pair
//     2·class+bit) and counts them;
//  2. a serial scan numbers them in first-use order by cell, stopping
//     at the last new one, so the new table does not depend on how the
//     passes were sharded;
//  3. each successor grows once, from a copy of its class;
//  4. one parallel pass moves every cell to its successor.
//
// After a Stress each class is the successor of one pair, so all its
// cells hold that pair's bit, and the classes are numbered in first-use
// order by cell. While the class array is unchanged and the data plane
// is byte-equal to the one the last Stress left, the used pairs are
// therefore one per class, in class order, and the successor map is the
// identity: a steady soak (a slice of a held payload) grows each class
// in place with step 3 alone and skips both cell passes and the scan.
// Any write of the class array drops the record (classesChanged), and
// the data plane is compared, not tracked, so no data writer has to
// know about it.
//
// The bias plane is left stale: the next read rebuilds it once, so a
// soak of k slices pays one bias pass, not k.
//
// Each successor holds exactly the floats its cells held under the
// per-cell engine: the same operations on the same inputs. First-use
// numbering keeps a cell's class near its neighbours' in the table, so
// the move pass reads the table in order even when nearly every cell
// has a history of its own.
func (a *Array) Stress(c analog.Conditions, hours float64) error {
	if !a.powered {
		return ErrUnpowered
	}
	if hours <= 0 {
		return nil
	}
	a.biasFresh = false
	if a.steady() {
		a.growPairs(c, hours, a.heldPairs, a.hist)
		return nil
	}
	// Background context: Run cannot fail.
	ctx := context.Background()

	// 1. Mark the used pairs. Each shard marks its own bitset and merges
	// it under the lock (no atomic OR at the module's Go version).
	class, data := a.class, a.data
	used := make([]uint64, (2*len(a.hist)+63)/64)
	var mu sync.Mutex
	_ = a.pool.Run(ctx, len(data), 1, func(lo, hi int) {
		mine := make([]uint64, len(used))
		markPairs(data[lo:hi], class[lo*8:hi*8], mine)
		mu.Lock()
		for w, m := range mine {
			used[w] |= m
		}
		mu.Unlock()
	})

	// 2. Number them in first-use order: pair pairs[id] becomes class
	// id, and succ maps each used pair to its id plus one.
	left := 0
	for _, m := range used {
		left += bits.OnesCount64(m)
	}
	succ := make([]uint32, 2*len(a.hist))
	pairs := make([]uint32, 0, left)
	for i := 0; left > 0; i++ {
		pr := class[i]<<1 | uint32(data[i>>3])>>(i&7)&1
		if succ[pr] == 0 {
			pairs = append(pairs, pr)
			succ[pr] = uint32(len(pairs))
			left--
		}
	}

	// 3. Grow each successor once, from a copy of its class.
	next := make([]history, len(pairs))
	a.growPairs(c, hours, pairs, next)

	// 4. Move every cell to its successor.
	_ = a.pool.Run(ctx, len(data), 1, func(lo, hi int) {
		moveCells(data[lo:hi], class[lo*8:hi*8], succ)
	})
	a.hist = next
	a.classesChanged()

	// Record the steady state: class id's pair is 2·id plus the bit its
	// cells held, pairs[id]'s.
	for id, pr := range pairs {
		pairs[id] = uint32(id)<<1 | pr&1
	}
	a.heldPairs = pairs
	a.heldData = append(a.heldData[:0], data...)
	return nil
}

// steady reports whether the next Stress takes the table-only path:
// the record is live and the data plane is the one it holds.
func (a *Array) steady() bool {
	return a.heldPairs != nil && bytes.Equal(a.data, a.heldData)
}

// growPairs sets next[id] to class pairs[id]>>1 grown for hours under
// c while its cells hold bit pairs[id]&1: the held direction's pools
// grow, and the other direction's recoverable pools relax. next may be
// a.hist when every pairs[id]>>1 is id (each class grows in place).
func (a *Array) growPairs(c analog.Conditions, hours float64, pairs []uint32, next []history) {
	p := a.spec.Aging
	// The opposite direction's recoverable pools relax at the chamber
	// temperature (hot soaks also heal faster).
	fFast, fSlow := p.RecoveryFactorsAt(hours, c.TempC)
	f32, s32 := float32(fFast), float32(fSlow)
	permFrac := p.PermanentFrac()
	n := p.TimeExponent
	invN := 1 / n
	a0 := p.A0MvPerHourN
	// Everything condition-dependent hoists out of the class loop: dt
	// hours at Rate(c) advances a class's reference-rate equivalent time
	// by dt·(Rate(c)/A0)^(1/n) — one Rate and one Pow for the whole
	// call, and growth becomes a forward power evaluation.
	dtEff := hours * math.Pow(p.Rate(c)/a0, invN)
	// Shards run concurrently, so each keeps its own growth memo.
	// Background context: Run cannot fail.
	_ = a.pool.Run(context.Background(), len(pairs), 1, func(lo, hi int) {
		memo := growMemo{te: math.NaN()}
		for id := lo; id < hi; id++ {
			pr := pairs[id]
			h := a.hist[pr>>1]
			if pr&1 != 0 {
				memo.grow(a0, n, invN, dtEff, permFrac, p.RecFastFrac, p.RecSlowFrac,
					&h.t1Ref, &h.s1Perm, &h.s1Fast, &h.s1Slow)
				if h.s0Fast != 0 || h.s0Slow != 0 {
					h.s0Fast *= f32
					h.s0Slow *= s32
					h.t0Ref = -1 // total shrank: equivalent time stale
				}
			} else {
				memo.grow(a0, n, invN, dtEff, permFrac, p.RecFastFrac, p.RecSlowFrac,
					&h.t0Ref, &h.s0Perm, &h.s0Fast, &h.s0Slow)
				if h.s1Fast != 0 || h.s1Slow != 0 {
					h.s1Fast *= f32
					h.s1Slow *= s32
					h.t1Ref = -1
				}
			}
			next[id] = h
		}
	})
}

// markPairs sets bit 2·class+bit in used for every cell of the
// bit-packed plane data, whose classes are class; a table of at most 32
// classes marks in a register.
func markPairs(data []byte, class []uint32, used []uint64) {
	var one uint64
	for j, d := range data {
		held := uint32(d)
		for b, c := range class[j*8 : j*8+8] {
			pr := c<<1 | held>>b&1
			if len(used) == 1 {
				one |= 1 << (pr & 63)
			} else {
				used[pr>>6] |= 1 << (pr & 63)
			}
		}
	}
	used[0] |= one
}

// moveCells moves every cell of the bit-packed plane data to its
// successor class, succ[2·class+bit]−1.
func moveCells(data []byte, class []uint32, succ []uint32) {
	for j, d := range data {
		held := uint32(d)
		cs := class[j*8 : j*8+8]
		for b, c := range cs {
			cs[b] = succ[c<<1|held>>b&1] - 1
		}
	}
}

// growMemo remembers the last equivalent time a Stress shard grew a
// class to and that time's total a0·exp(n·log te). Classes that differ
// only in the other direction reach the same te, so they reuse the
// total: the same input gives the same float, so the memo is exact.
type growMemo struct{ te, total float64 }

// grow applies effective-time stress growth to one direction's pools
// using the tracked reference-rate equivalent time: te advances by the
// caller's pre-scaled dtEff and the new total is one forward
// exp(n·log te), or the memo's when te repeats. A negative *tRef means
// the pools decayed since te was last valid; re-derive it from the
// current total — the same inverse power the pre-overhaul engine paid
// on every cell of every call, now paid only by cells that actually
// decayed.
func (m *growMemo) grow(a0, n, invN, dtEff, permFrac, fastFrac, slowFrac float64,
	tRef *float64, perm, fast, slow *float32) {
	total := float64(*perm) + float64(*fast) + float64(*slow)
	te := *tRef
	if te < 0 {
		te = 0
		if total > 0 {
			te = math.Pow(total/a0, invN)
		}
	}
	te += dtEff
	*tRef = te
	if te != m.te {
		m.te, m.total = te, a0*math.Exp(n*math.Log(te))
	}
	delta := m.total - total
	if delta <= 0 {
		return
	}
	*perm += float32(delta * permFrac)
	*fast += float32(delta * fastFrac)
	*slow += float32(delta * slowFrac)
}

// Shelve lets the unpowered array recover naturally for hours (§5.1.3)
// at the reference storage temperature.
func (a *Array) Shelve(hours float64) error {
	if a.powered {
		return fmt.Errorf("sram: cannot shelve a powered array")
	}
	if hours <= 0 {
		return nil
	}
	fFast, fSlow := a.spec.Aging.RecoveryFactors(hours)
	a.decayPools(fFast, fSlow)
	return nil
}

// ShelveAt stores the unpowered array at tempC for hours. Hot storage
// accelerates recovery (Arrhenius) — the basis of the "baking attack"
// where an adversary ovens a suspect device to erase a potential
// message. Both directions' recoverable pools decay; permanent damage
// remains, which is what bounds the attack.
func (a *Array) ShelveAt(hours, tempC float64) error {
	if a.powered {
		return fmt.Errorf("sram: cannot shelve a powered array")
	}
	if hours <= 0 {
		return nil
	}
	fFast, fSlow := a.spec.Aging.RecoveryFactorsAt(hours, tempC)
	a.decayPools(fFast, fSlow)
	return nil
}

// decayPools decays each class's recoverable pools once; decayed
// directions' equivalent times go stale, and so does the bias plane
// until the next read rebuilds it.
func (a *Array) decayPools(fFast, fSlow float64) {
	f32, s32 := float32(fFast), float32(fSlow)
	for c := range a.hist {
		h := &a.hist[c]
		if h.s0Fast != 0 || h.s0Slow != 0 {
			h.s0Fast *= f32
			h.s0Slow *= s32
			h.t0Ref = -1
		}
		if h.s1Fast != 0 || h.s1Slow != 0 {
			h.s1Fast *= f32
			h.s1Slow *= s32
			h.t1Ref = -1
		}
	}
	a.biasFresh = false
}
