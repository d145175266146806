// Package rng provides the deterministic pseudo-random number generator
// used throughout the simulators and the emulated testbed.
//
// Requirements that math/rand does not meet directly:
//
//   - splittable per-station streams, so that adding a station to a
//     scenario does not perturb the draws of the existing stations;
//   - cheap re-seeding for repeated independent tests (the paper runs
//     10 × 240 s tests per point);
//   - a frozen algorithm: results must not change under Go toolchain
//     upgrades (math/rand/v2 changed generators between releases).
//
// The generator is xoshiro256**, seeded through SplitMix64 — the
// reference construction recommended by its authors. Both algorithms are
// public domain.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** stream.
//
// The zero value is not usable; construct with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the seed-expansion state and returns the next
// 64-bit output. Used only for seeding, as prescribed for xoshiro.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from the given 64-bit seed. Distinct seeds
// give (with overwhelming probability) non-overlapping streams.
func New(seed uint64) *Source {
	st := seed
	return &Source{
		s0: splitmix64(&st),
		s1: splitmix64(&st),
		s2: splitmix64(&st),
		s3: splitmix64(&st),
	}
}

// Split derives an independent child stream labelled by id. Children of
// the same parent with different ids are independent of each other and
// of the parent's subsequent output, so per-station streams are stable
// under changes to the number of stations.
func (s *Source) Split(id uint64) *Source {
	// Mix the parent's state with the label through SplitMix64 rather
	// than drawing from the parent, so Split does not advance s.
	st := s.s0 ^ rotl(s.s1, 13) ^ (id * 0x9e3779b97f4a7c15)
	return &Source{
		s0: splitmix64(&st),
		s1: splitmix64(&st),
		s2: splitmix64(&st),
		s3: splitmix64(&st),
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n ≤ 0, matching
// math/rand's contract: asking for a uniform draw from an empty range is
// a programming error at the call site.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless unbiased bounded draw.
	bound := uint64(n)
	x := s.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Backoff draws a 1901 backoff counter: uniform in {0, …, cw-1}. This is
// the Go equivalent of the simulator's "unidrnd(CW) - 1".
func (s *Source) Backoff(cw int) int { return s.Intn(cw) }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exponential returns an exponentially distributed duration with the
// given mean. Used by the Poisson traffic sources.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := s.Float64()
	for u == 0 { // avoid log(0)
		u = s.Float64()
	}
	return -mean * math.Log(u)
}
