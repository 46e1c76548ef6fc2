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

// Sample draws one variate by inversion.
func (g Geometric) Sample(r *RNG) int {
	if g.P >= 1 {
		return 0
	}
	if g.P <= 0 {
		panic("stats: Geometric with p <= 0")
	}
	return int(math.Floor(math.Log(r.Float64Open()) / math.Log1p(-g.P)))
}

// SkipSampler iterates the success positions of a Bernoulli(p) process over
// positions 0..n-1, visiting only successes. Expected cost is O(np); this is
// how the random-model generator fills a column of t transactions with an
// item of frequency f without touching the other (1-f)t rows.
type SkipSampler struct {
	n    int
	pos  int
	logq float64
	rng  *RNG
	done bool
}

// NewSkipSampler returns a sampler over positions [0, n) with success
// probability p per position. It returns a value, so a sampler held in a
// local variable stays off the heap: the generator draws one per column per
// replicate.
func NewSkipSampler(n int, p float64, rng *RNG) SkipSampler {
	s := SkipSampler{n: n, pos: -1, rng: rng}
	switch {
	case p <= 0:
		s.done = true
	case p >= 1:
		s.logq = 0 // signals "every position"
	default:
		s.logq = math.Log1p(-p)
	}
	return s
}

// Next returns the next success position and true, or (0, false) when the
// range is exhausted.
func (s *SkipSampler) Next() (int, bool) {
	if s.done {
		return 0, false
	}
	if s.logq == 0 { // p >= 1
		s.pos++
	} else {
		gap := int(math.Floor(math.Log(s.rng.Float64Open()) / s.logq))
		s.pos += gap + 1
	}
	if s.pos >= s.n {
		s.done = true
		return 0, false
	}
	return s.pos, true
}
