// Package stats provides the small numerical toolkit the reproduction
// needs: a deterministic PRNG, percentiles, numerical integration,
// compensated summation, root finding and streaming summaries.
//
// Everything is deterministic: simulations and benchmarks seed their own
// generators so results are reproducible run to run.
package stats

import "math"

// RNG is a deterministic xoshiro256** pseudo-random generator.
//
// The reproduction cannot use math/rand's global source because benchmark
// and test results must be bit-reproducible across runs and package
// initialization orders. xoshiro256** has a 256-bit state, passes BigCrush,
// and is trivial to implement from the public domain reference.
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for NormFloat64 (Marsaglia polar method)
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed state even for small consecutive seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r to the state NewRNG(seed) starts in, so a generator
// held by value needs no allocation of its own.
func (r *RNG) Seed(seed uint64) {
	*r = RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// A theoretically possible all-zero state would lock the generator.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniformly distributed double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Modulo bias is negligible for the n (< 2^32) used here, but Lemire's
	// multiply-shift rejection is just as cheap and exact.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		threshold := (-uint64(n)) % uint64(n)
		for lo < threshold {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo32 := t & mask
	carry := t >> 32
	t = aHi*bLo + carry
	mid1 := t & mask
	hi1 := t >> 32
	t = aLo*bHi + mid1
	mid2 := t & mask
	hi2 := t >> 32
	hi = aHi*bHi + hi1 + hi2
	lo = mid2<<32 | lo32
	return hi, lo
}

// ExpFloat64 returns an exponentially distributed value with the given
// rate (mean 1/rate). Used for Poisson job inter-arrival times.
func (r *RNG) ExpFloat64(rate float64) float64 {
	if rate <= 0 {
		panic("stats: ExpFloat64 with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0,1], so the log is finite.
	return -math.Log(1-u) / rate
}

// NormFloat64 returns a normally distributed value with mean 0 and the
// given standard deviation, via the Marsaglia polar method.
func (r *RNG) NormFloat64(stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare * stddev
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return u * m * stddev
	}
}

// Split returns a new generator deterministically derived from r, so that
// independent simulation components can draw from decorrelated streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
