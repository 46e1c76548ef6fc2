package stats

import "math"

// Geometric is the distribution of the number of failures before the first
// success in Bernoulli(P) trials, supported on {0, 1, 2, ...}. The random
// dataset generator uses geometric gaps to place item occurrences in
// O(expected occurrences) time instead of O(transactions).
type Geometric struct {
	P float64
}

// Mean returns (1-P)/P.
func (g Geometric) Mean() float64 { return (1 - g.P) / g.P }

// Variance returns (1-P)/P^2.
func (g Geometric) Variance() float64 { return (1 - g.P) / (g.P * g.P) }

// PMF returns Pr(X = k) = (1-p)^k p.
func (g Geometric) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	return math.Exp(float64(k)*math.Log1p(-g.P)) * g.P
}

// CDF returns Pr(X <= k) = 1 - (1-p)^{k+1}.
func (g Geometric) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	return -math.Expm1(float64(k+1) * math.Log1p(-g.P))
}

// Sample draws one variate by inversion. A gap too large for an int (p
// below ~4e-18) saturates at math.MaxInt.
func (g Geometric) Sample(r *RNG) int {
	if g.P >= 1 {
		return 0
	}
	if !(g.P > 0) {
		panic("stats: Geometric with p <= 0 or NaN")
	}
	gap, ok := NewGeometricGap(g.P).Below(r.Float64Open(), math.MaxInt)
	if !ok {
		return math.MaxInt
	}
	return gap
}

// GeometricGap draws Geometric(p) gaps by inversion, gap(u) =
// floor(log(u) / log1p(-p)) for a uniform u in (0, 1). It is the one place
// the samplers of this package (Geometric, Binomial, SkipSampler) and the
// independence null model evaluate that expression. It holds the two
// per-p constants, so a caller drawing many gaps at one p — a column of
// the null model, every replicate of a job — computes them once.
//
// Below returns exactly the integer the reference expression
// math.Floor(math.Log(u)/math.Log1p(-p)) gives, so a stream of gaps is the
// same whichever way it is computed; see Below for the certificate.
type GeometricGap struct {
	logq float64 // log1p(-p)
	inv  float64 // 1 / logq
}

// NewGeometricGap returns the gap constants for success probability p in
// (0, 1). Callers handle p >= 1 (every gap is 0, no draw needed) and
// p <= 0 (no success ever) themselves.
func NewGeometricGap(p float64) GeometricGap {
	logq := math.Log1p(-p)
	return GeometricGap{logq: logq, inv: 1 / logq}
}

// gapSlack is the certification margin of Below, relative and absolute:
// the fast estimate y is trusted to lie within gapSlack*(1+y) of the
// reference quotient. fastLog's relative error is below 1e-13 and the
// product with inv adds a few ulps, so the margin is >= 10^4 times the
// worst error, wide enough to absorb FMA contraction on any target.
const gapSlack = 1e-9

// Below returns gap(u) and true when gap(u) < limit, and (0, false)
// otherwise. u must be a uniform from RNG.Float64Open (in (0, 1)) and limit
// must be >= 0. The comparison with limit is made on the float quotient
// before any int conversion, so gaps beyond the int range (tiny p) end a
// walk instead of wrapping.
//
// Fast path: y = fastLog(u) * inv, with [y-e, y+e], e = gapSlack*(1+y),
// bracketing the reference quotient math.Log(u)/logq. If the whole bracket
// is at or above limit, so is the reference gap. If the bracket holds no
// integer, floor(y) is the reference gap. Otherwise (about 2e-6 of draws
// at the null model's frequencies) the reference expression is evaluated.
func (g GeometricGap) Below(u float64, limit int) (int, bool) {
	y := fastLog(u) * g.inv
	// Written as products so y = +Inf (p subnormal) gives lo = +Inf, not NaN.
	lo := y*(1-gapSlack) - gapSlack
	if lo >= float64(limit) {
		return 0, false
	}
	fl := math.Floor(lo)
	if y*(1+gapSlack)+gapSlack < fl+1 {
		return int(fl), true
	}
	return g.reference(u, limit)
}

// reference is Below's exact fallback: the reference expression itself.
func (g GeometricGap) reference(u float64, limit int) (int, bool) {
	gap := math.Floor(math.Log(u) / g.logq)
	if gap >= float64(limit) {
		return 0, false
	}
	return int(gap), true
}

// SkipSampler iterates the success positions of a Bernoulli(p) process over
// positions 0..n-1, visiting only successes. Expected cost is O(np); this is
// how the random-model generator fills a column of t transactions with an
// item of frequency f without touching the other (1-f)t rows.
type SkipSampler struct {
	n     int
	pos   int
	gap   GeometricGap
	every bool // p >= 1: every position succeeds, no draws
	rng   *RNG
	done  bool
}

// NewSkipSampler returns a sampler over positions [0, n) with success
// probability p per position. It returns a value, so a sampler held in a
// local variable stays off the heap.
func NewSkipSampler(n int, p float64, rng *RNG) SkipSampler {
	s := SkipSampler{n: n, pos: -1, rng: rng}
	switch {
	case !(p > 0):
		s.done = true
	case p >= 1:
		s.every = true
	default:
		s.gap = NewGeometricGap(p)
	}
	return s
}

// Next returns the next success position and true, or (0, false) when the
// range is exhausted.
func (s *SkipSampler) Next() (int, bool) {
	if s.done {
		return 0, false
	}
	if s.every {
		s.pos++
		if s.pos >= s.n {
			s.done = true
			return 0, false
		}
		return s.pos, true
	}
	gap, ok := s.gap.Below(s.rng.Float64Open(), s.n-s.pos-1)
	if !ok {
		s.done = true
		return 0, false
	}
	s.pos += gap + 1
	return s.pos, true
}
