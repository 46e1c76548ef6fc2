// Package stats provides the statistical substrate for sigfim: exact
// Binomial, Poisson and hypergeometric tails with the special functions
// behind them, the certified geometric gap the independence null model
// draws with, a seedable RNG, the power-law frequency fit and subset
// sampler of the synthetic datasets, and the chi-square and total-variation
// checks the tests compare against.
//
// Everything in this package is implemented from scratch on top of the Go
// standard library (math only). The distributions expose exact upper tails
// (survival functions) because the paper's procedures compute p-values of the
// form Pr(Bin(t,f) >= s) and Pr(Poisson(lambda) >= q), where naive summation
// would be both slow and numerically unstable.
package stats

import "math/bits"

// RNG is a small, fast, seedable pseudo-random generator based on
// xoshiro256**. It is deliberately not safe for concurrent use; callers that
// parallelize create one RNG per goroutine via Split.
//
// A hand-rolled generator (rather than math/rand) keeps replicate streams
// reproducible across Go versions, which matters for the Monte Carlo
// experiments: the golden fixtures and the benchmark oracle pin results
// tied to specific seeds.
type RNG struct {
	s [4]uint64
}

// splitmix64 is the recommended seeding generator for xoshiro: it guarantees
// the four words of state are well mixed even for small consecutive seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given seed. Two RNGs built from
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent generator from the current one. It consumes
// one value from the parent stream, so repeated Splits yield distinct
// children. Used to hand one RNG per worker goroutine.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1); it never returns 0, which
// keeps log(U) finite in exponential/geometric inversions.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
