package rng

// Stream is a counter-based (splittable) noise source: every draw is a
// pure function of (stream key, counter, index), with no sequential
// state. Where Source models a single PRNG tape that must be consumed
// in order, Stream hands out an independent tape per coordinate — which
// is what makes the SRAM capture engine parallel-safe by construction:
// cell i's thermal-noise sample on power-on k is NormZig(k, i) no matter
// which worker computes it, in what order, or in what chunk.
//
// The derivation is two rounds of the SplitMix64 finalizer over the key
// and the coordinates, each pre-multiplied by a distinct odd constant
// (the wyhash primes) so that neighbouring counters and indices land in
// statistically unrelated states. This is the same construction family
// as Source.Split, extended from one child to an addressable plane of
// children. Not cryptographically secure; never use for key material.
type Stream struct {
	key uint64
}

// streamDomain separates Stream keys from raw Source seeds so an array
// seeded with S does not replay cell noise correlated with another
// subsystem that consumed NewSource(S) directly.
const streamDomain = 0x1bad5eed0fca11ed

// NewStream returns the noise plane keyed by seed.
func NewStream(seed uint64) Stream {
	return Stream{key: mix64(seed ^ streamDomain)}
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Pre-multipliers decorrelating neighbouring counters and indices (the
// wyhash primes), and the SplitMix64 Weyl increment consumed by a
// Source's first Uint64. Named so the hoisted-counter fast path below
// provably derives the same states as stateAt.
const (
	ctrPrime  = 0xa0761d6478bd642f
	idxPrime  = 0xe7037ed1a0b428db
	weylGamma = 0x9e3779b97f4a7c15
)

// stateAt derives the Source state for coordinate (counter, index).
func (s Stream) stateAt(counter, index uint64) uint64 {
	st := mix64(s.key + counter*ctrPrime)
	return mix64(st ^ index*idxPrime)
}

// CtrState hoists the counter half of the coordinate derivation: for a
// fixed power-on counter, every cell's Source state is
// mix64(CtrState(counter) ^ index*idxPrime). Capture kernels that
// iterate many cells per race compute this once per race instead of
// once per draw — a pure refactor of stateAt, bit-identical by
// construction.
func (s Stream) CtrState(counter uint64) uint64 {
	return mix64(s.key + counter*ctrPrime)
}

// At returns an independent Source for coordinate (counter, index).
// Successive calls with the same coordinate return identical streams.
func (s Stream) At(counter, index uint64) *Source {
	return &Source{state: s.stateAt(counter, index)}
}
