// Package stats provides the statistical substrate for sigfim: exact
// Binomial, Poisson and hypergeometric tails with the special functions
// behind them, the certified geometric gap the independence null model
// draws with and its column walk over block-drawn uniforms
// (UniformBlock), the block-drawn bounded integers of the swap chain
// (IndexBlock), a seedable RNG, the power-law frequency fit and subset
// sampler of the synthetic datasets, and the chi-square and total-variation
// checks the tests compare against.
//
// Everything in this package is implemented from scratch on top of the Go
// standard library (math and math/bits). Two pieces are assembly, chosen
// on amd64 CPUs with AVX2, found by CPUID/XGETBV at start-up: UniformBlock
// computes its table logs with one AVX2 kernel (fastlog_amd64.s) that gives
// the same bits as the Go loop every other CPU runs, and walks the null
// model's columns with another (walk_amd64.s) that certifies, places and
// stores four geometric gaps per step, leaving to the Go walk the lanes it
// cannot certify; both walks place exactly the reference gaps.
//
// The distributions expose exact upper tails (survival functions) because
// the paper's procedures compute p-values of the form Pr(Bin(t,f) >= s)
// and Pr(Poisson(lambda) >= q), where naive summation would be both slow
// and numerically unstable.
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
	x xoshiro
}

// xoshiro is the xoshiro256** state. Its four words are separate fields,
// not an array, and next takes and returns it by value, so a copy held in a
// local (UniformBlock.fill) lives in registers.
type xoshiro struct{ s0, s1, s2, s3 uint64 }

// next returns the state one step on and the step's 64 output bits: the one
// definition of the generator, shared by RNG.Uint64 and the block fill.
func (x xoshiro) next() (xoshiro, uint64) {
	result := rotl(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = rotl(x.s3, 45)
	return x, result
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
	r := new(RNG)
	r.Reseed(seed)
	return r
}

// Reseed restarts r at the state NewRNG(seed) starts from, so one generator
// serves a sequence of seeded streams without an allocation per stream.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	// The calls run left to right (Go evaluates calls in lexical order).
	r.x = xoshiro{splitmix64(&x), splitmix64(&x), splitmix64(&x), splitmix64(&x)}
	// xoshiro must not start from the all-zero state.
	if r.x == (xoshiro{}) {
		r.x.s0 = 0x9e3779b97f4a7c15
	}
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
	var v uint64
	r.x, v = r.x.next()
	return v
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 { return toFloat64(r.Uint64()) }

// toFloat64 maps 64 random bits to a uniform in [0, 1) on the 2^-53 grid.
func toFloat64(bits uint64) float64 { return float64(bits>>11) / (1 << 53) }

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
