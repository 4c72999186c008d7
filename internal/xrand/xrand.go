// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository. Every generator is seeded
// explicitly, so graph generation, root selection and workload synthesis
// are reproducible across runs and host architectures.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny, statistically strong generator used for seeding
//     and for short streams.
//   - Xoshiro256: xoshiro256**, used for long streams such as R-MAT edge
//     generation, seeded from SplitMix64 per Vigna's recommendation.
package xrand

import "math"

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea and Flood.
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro256 returns a generator whose state is expanded from seed
// with SplitMix64, as recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	var x Xoshiro256
	x.s0, x.s1, x.s2, x.s3 = SeedXoshiro256(seed)
	return &x
}

// SeedXoshiro256 is NewXoshiro256 by value: the four state words, for a
// caller that keeps them in locals and advances them with
// StepXoshiro256. R-MAT generation starts a private stream per edge; a
// heap generator per stream was its largest single cost.
func SeedXoshiro256(seed uint64) (s0, s1, s2, s3 uint64) {
	sm := SplitMix64{state: seed}
	s0, s1, s2, s3 = sm.Uint64(), sm.Uint64(), sm.Uint64(), sm.Uint64()
	// An all-zero state would be a fixed point; SplitMix64 cannot produce
	// four consecutive zeros, but guard anyway for safety.
	if s0|s1|s2|s3 == 0 {
		s0 = 0x9e3779b97f4a7c15
	}
	return s0, s1, s2, s3
}

// StepXoshiro256 returns the next output of the generator in state
// (s0, s1, s2, s3) and the state after it. It is the one definition of
// the xoshiro256** step; Uint64 is this function on a stored state.
func StepXoshiro256(s0, s1, s2, s3 uint64) (out, t0, t1, t2, t3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (x *Xoshiro256) Uint64() (out uint64) {
	out, x.s0, x.s1, x.s2, x.s3 = StepXoshiro256(x.s0, x.s1, x.s2, x.s3)
	return out
}

// UnitFloat64 maps 64 random bits to a uniform value in [0, 1) with 53
// bits of precision.
func UnitFloat64(bits uint64) float64 { return float64(bits>>11) / (1 << 53) }

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 { return UnitFloat64(x.Uint64()) }

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return x.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := x.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Int63 returns a non-negative int64.
func (x *Xoshiro256) Int63() int64 {
	return int64(x.Uint64() >> 1)
}
