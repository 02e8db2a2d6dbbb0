package sram

import (
	"errors"
	"fmt"
)

// State is a serializable snapshot of an array's mutable condition: the
// accumulated aging pools and the digital contents. The mismatch pattern
// is NOT part of the state — it is reproduced from the spec seed, exactly
// as real silicon carries its fingerprint implicitly. Gob/JSON-encodable.
type State struct {
	Seed     uint64 // must match the array being restored into
	Powered  bool
	Remanent bool
	// PowerOns is the noise-stream counter: how many power-on races the
	// array had resolved when the snapshot was taken. Restoring it lets
	// the array replay the same noise future. Absent (zero) in snapshots
	// taken before counter-based noise derivation; such arrays replay
	// from counter 0, which is still fully deterministic.
	PowerOns uint64
	// NoiseGen records which thermal-noise plane the array was using
	// (NoiseGenBoxMuller or NoiseGenZiggurat). Snapshots taken before
	// noise-plane versioning carry zero, which restores as v1
	// (Box–Muller) — the only sampler that existed then — so archived
	// device images keep replaying bit-identical captures.
	NoiseGen int
	Data     []byte
	S0Perm   []float32
	S0Fast   []float32
	S0Slow   []float32
	S1Perm   []float32
	S1Fast   []float32
	S1Slow   []float32
}

// StateSnapshot captures the array's current mutable state.
func (a *Array) StateSnapshot() State {
	cp := func(src []float32) []float32 {
		out := make([]float32, len(src))
		copy(out, src)
		return out
	}
	data := make([]byte, len(a.data))
	copy(data, a.data)
	return State{
		Seed:     a.spec.Seed,
		Powered:  a.powered,
		Remanent: a.remanent,
		PowerOns: a.powerOns,
		NoiseGen: a.spec.NoiseGen,
		Data:     data,
		S0Perm:   cp(a.s0Perm), S0Fast: cp(a.s0Fast), S0Slow: cp(a.s0Slow),
		S1Perm: cp(a.s1Perm), S1Fast: cp(a.s1Fast), S1Slow: cp(a.s1Slow),
	}
}

// ErrStateMismatch is returned when a state snapshot does not belong to
// the array it is being restored into.
var ErrStateMismatch = errors.New("sram: state snapshot belongs to a different array")

// RestoreState loads a snapshot previously taken from an array with the
// same spec (same seed and geometry). The array adopts the snapshot's
// noise-plane version — restoring a pre-versioning snapshot (NoiseGen
// zero) switches the array to Box–Muller regardless of how it was
// constructed, so archived captures replay bit-identically.
func (a *Array) RestoreState(s State) error {
	if s.Seed != a.spec.Seed {
		return fmt.Errorf("%w: seed %d vs %d", ErrStateMismatch, s.Seed, a.spec.Seed)
	}
	if len(s.Data) != len(a.data) {
		return fmt.Errorf("%w: geometry differs", ErrStateMismatch)
	}
	for _, pool := range [][]float32{s.S0Perm, s.S0Fast, s.S0Slow, s.S1Perm, s.S1Fast, s.S1Slow} {
		if len(pool) != a.n {
			return fmt.Errorf("%w: geometry differs", ErrStateMismatch)
		}
	}
	gen := s.NoiseGen
	switch gen {
	case 0:
		gen = NoiseGenBoxMuller
	case NoiseGenBoxMuller, NoiseGenZiggurat:
	default:
		return fmt.Errorf("sram: snapshot uses unknown noise-generation version %d", s.NoiseGen)
	}
	copy(a.data, s.Data)
	copy(a.s0Perm, s.S0Perm)
	copy(a.s0Fast, s.S0Fast)
	copy(a.s0Slow, s.S0Slow)
	copy(a.s1Perm, s.S1Perm)
	copy(a.s1Fast, s.S1Fast)
	copy(a.s1Slow, s.S1Slow)
	a.powered = s.Powered
	a.remanent = s.Remanent
	a.powerOns = s.PowerOns
	a.setNoiseGen(gen)
	// The cached decision variables and equivalent stress times belong
	// to the replaced pools: invalidate both (equivalent times re-derive
	// lazily on the next growth of each cell).
	a.biasFresh = false
	for i := range a.t0Ref {
		a.t0Ref[i] = -1
		a.t1Ref[i] = -1
	}
	return nil
}
