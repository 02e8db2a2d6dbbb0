package sram

import "errors"

// State is a per-cell view of an array's mutable condition: the
// accumulated aging pools and the digital contents. The mismatch pattern
// is NOT part of the state — it is reproduced from the spec seed, exactly
// as real silicon carries its fingerprint implicitly. The state pins hash
// it; the persisted form is the state section (AppendState, ReadState).
type State struct {
	Seed     uint64
	Powered  bool
	Remanent bool
	// PowerOns is the noise-stream counter: how many power-on races the
	// array had resolved when the snapshot was taken.
	PowerOns uint64
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
		Data:     data,
		S0Perm:   s0p, S0Fast: s0f, S0Slow: s0s,
		S1Perm: s1p, S1Fast: s1f, S1Slow: s1s,
	}
}

// ErrStateMismatch is returned when a state section does not belong to
// the array it is being read into.
var ErrStateMismatch = errors.New("sram: state snapshot belongs to a different array")
