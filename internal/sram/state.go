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

// StateSnapshot captures the array's current mutable state, each
// cell's pools expanded from its class.
func (a *Array) StateSnapshot() State {
	data := make([]byte, len(a.data))
	copy(data, a.data)
	s0p, s0f, s0s := make([]float32, a.n), make([]float32, a.n), make([]float32, a.n)
	s1p, s1f, s1s := make([]float32, a.n), make([]float32, a.n), make([]float32, a.n)
	for i, c := range a.class {
		h := &a.hist[c]
		s0p[i], s0f[i], s0s[i] = h.s0Perm, h.s0Fast, h.s0Slow
		s1p[i], s1f[i], s1s[i] = h.s1Perm, h.s1Fast, h.s1Slow
	}
	return State{
		Seed:     a.spec.Seed,
		Powered:  a.powered,
		Remanent: a.remanent,
		PowerOns: a.powerOns,
		NoiseGen: a.spec.NoiseGen,
		Data:     data,
		S0Perm:   s0p, S0Fast: s0f, S0Slow: s0s,
		S1Perm: s1p, S1Fast: s1f, S1Slow: s1s,
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
	// Snapshots carry no equivalent stress times, so every class's are
	// stale (they re-derive lazily on the class's next growth), and
	// cells with equal pools share a class.
	var hist []history
	seen := make(map[agingClass]uint32)
	for i := range a.class {
		h := history{
			s0Perm: s.S0Perm[i], s0Fast: s.S0Fast[i], s0Slow: s.S0Slow[i],
			s1Perm: s.S1Perm[i], s1Fast: s.S1Fast[i], s1Slow: s.S1Slow[i],
			t0Ref: -1, t1Ref: -1,
		}
		k := h.key()
		id, ok := seen[k]
		if !ok {
			id = uint32(len(hist))
			seen[k] = id
			hist = append(hist, h)
		}
		a.class[i] = id
	}
	a.hist = hist
	copy(a.data, s.Data)
	a.powered = s.Powered
	a.remanent = s.Remanent
	a.powerOns = s.PowerOns
	a.setNoiseGen(gen)
	// The cached decision variables belong to the replaced classes.
	a.biasFresh = false
	return nil
}
