// Package rng provides the deterministic random number generators used
// throughout the Invisible Bits simulator.
//
// Two families live here:
//
//   - Source / SplitMix64 / Gaussian: a fast, seedable, splittable PRNG
//     used to synthesize process variation and per-power-on thermal noise.
//     Determinism matters: a simulated device's manufacturing mismatch is
//     derived from its serial number, so the same device exhibits the same
//     SRAM "fingerprint" across program runs, mirroring real silicon.
//
//   - LFSR32 / GlibcLCG / WorkloadWriter: the exact pseudo-random write
//     workload the paper uses for the normal-operation experiment
//     (§5.1.4): "a 32-bit linear feedback shift register tailed by a
//     linear congruential generator (from glibc,
//     x_{n+1} = 1103515245×x_n + 12345 mod 2^31) as seed generator".
package rng

import (
	"math"
	"math/bits"
)

// Source is a SplitMix64 pseudo-random generator. It passes through a
// 64-bit state with a Weyl increment and a finalizer; it is tiny, fast,
// and has a guaranteed period of 2^64. It is NOT cryptographically
// secure and must never be used for key material (see stegocrypt).
type Source struct {
	state uint64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child source from s. The child's stream is
// decorrelated from the parent's by hashing the parent's next output with
// a distinct odd constant, so subsystems (per-cell mismatch, per-capture
// noise, workload data) can draw independently without interleaving.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64() * 0x9e3779b97f4a7c15}
}

// splitMixGamma is SplitMix64's Weyl increment: each draw advances the
// state by it.
const splitMixGamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += splitMixGamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances s past n draws in O(1), leaving it where n Uint64 calls
// would: the state is a Weyl sequence, so n draws add n·gamma. Workers
// that each own a range of a serial draw sequence start from Skip.
func (s *Source) Skip(n uint64) { s.state += n * splitMixGamma }

// Uint32 returns the next 32 pseudo-random bits.
func (s *Source) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard-normal variate using the Box–Muller transform.
// Only one of the pair is used; the generator is cheap enough that caching
// the second is not worth the state.
func (s *Source) Norm() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		v := s.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// NormScaled returns mean + stddev*Norm().
func (s *Source) NormScaled(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher–Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bytes fills b with pseudo-random bytes.
func (s *Source) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := s.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	if i < len(b) {
		v := s.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// HashString folds a string into a 64-bit seed using the FNV-1a
// construction. Used to turn device serial numbers into mismatch seeds.
func HashString(s string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
