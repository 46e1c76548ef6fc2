// Package oracle holds the analytic and simulation references the tests
// check the production code against; no non-test file outside this
// package imports it, which TestOnlyTestsImportOracle enforces.
//
// The Chen-Stein Poisson-approximation machinery of the paper's Section 2
// checks Algorithm 1: the dependency bounds b1(s) and b2(s) of Theorem 1,
// their closed forms in the uniform-frequency regime of Theorem 2 and the
// mixture regime of Theorem 3 (the RDist frequency distributions), exact
// and bucketed computation of lambda = E[Q̂_{k,s}], and the analytic
// support threshold s_min = min{s : b1(s)+b2(s) <= eps} of Equation (1).
//
// The variation distance between the law of Q̂_{k,s} (the number of
// k-itemsets with support >= s in a random dataset) and a Poisson law of the
// same mean is at most b1(s) + b2(s), where b1 sums p_X p_Y over ordered
// pairs of overlapping k-itemsets (including X = Y) and b2 sums E[Z_X Z_Y]
// over ordered pairs of distinct overlapping k-itemsets.
//
// The multiple-testing masks (Bonferroni, Holm, Benjamini-Hochberg and the
// Benjamini-Yekutieli step-up of Theorem 5) check Procedure 1 and rule
// selection, EmpiricalFDR and Power score a rejection mask against ground
// truth, and the chi-square and total-variation checks test the samplers.
package oracle

import (
	"math"

	"sigfim/internal/stats"
)

// UniformBounds evaluates b1 and b2 in the Theorem 2 regime: every item has
// the same frequency P, so every k-itemset has support distribution
// Binomial(T, P^k) and the combinatorics collapse to closed forms.
type UniformBounds struct {
	N int     // number of items
	K int     // itemset size
	T int     // number of transactions
	P float64 // per-item frequency
}

// pX returns Pr(Bin(T, P^k) >= s), the tail probability shared by all
// k-itemsets.
func (u UniformBounds) pX(s int) float64 {
	return stats.Binomial{N: u.T, P: math.Pow(u.P, float64(u.K))}.UpperTail(s)
}

// Lambda returns E[Q̂_{k,s}] = C(n,k) * pX(s).
func (u UniformBounds) Lambda(s int) float64 {
	return math.Exp(stats.LogChoose(u.N, u.K) + math.Log(u.pX(s)))
}

// B1 returns the exact b1(s): the number of ordered overlapping pairs,
// C(n,k)^2 - C(n,k) C(n-k,k), times pX(s)^2.
func (u UniformBounds) B1(s int) float64 {
	p := u.pX(s)
	if p == 0 {
		return 0
	}
	logNk := stats.LogChoose(u.N, u.K)
	// pairs = C(n,k)^2 (1 - C(n-k,k)/C(n,k)).
	ratio := math.Exp(stats.LogChoose(u.N-u.K, u.K) - logNk) // < 1
	pairs := math.Exp(2*logNk) * (1 - ratio)
	return pairs * p * p
}

// B2 returns the Theorem 2 upper bound on b2(s):
//
//	sum_{g=1}^{k-1} C(n; g, k-g, k-g) * sum_{i=0}^{s} C(t; i, s-i, s-i)
//	    * p^{(2k-g) i + 2k (s-i)}
//
// where C(n; a,b,c) is the multinomial coefficient n!/(a! b! c! (n-a-b-c)!).
func (u UniformBounds) B2(s int) float64 {
	total := 0.0
	logP := math.Log(u.P)
	for g := 1; g <= u.K-1; g++ {
		logCount := logMultinomial3(u.N, g, u.K-g, u.K-g)
		inner := math.Inf(-1)
		for i := 0; i <= s; i++ {
			if i > u.T || 2*(s-i) > u.T-i {
				continue
			}
			logTerm := logMultinomial3(u.T, i, s-i, s-i) +
				float64((2*u.K-g)*i+2*u.K*(s-i))*logP
			inner = stats.LogSumExp(inner, logTerm)
		}
		if math.IsInf(inner, -1) {
			continue
		}
		total += math.Exp(logCount + inner)
	}
	return total
}

// logMultinomial3 returns ln( n! / (a! b! c! (n-a-b-c)!) ), -Inf when the
// parts do not fit.
func logMultinomial3(n, a, b, c int) float64 {
	rest := n - a - b - c
	if a < 0 || b < 0 || c < 0 || rest < 0 {
		return math.Inf(-1)
	}
	return stats.LogFactorial(n) - stats.LogFactorial(a) - stats.LogFactorial(b) -
		stats.LogFactorial(c) - stats.LogFactorial(rest)
}

// Sum returns b1(s) + b2(s).
func (u UniformBounds) Sum(s int) float64 { return u.B1(s) + u.B2(s) }

// SMin returns the analytic threshold min{s >= lo : b1(s)+b2(s) <= eps},
// searching upward from lo (lo < 1 is clamped to 1). Both bounds decrease in
// s, so the scan exits at the first satisfying s. Returns (s, true), or
// (0, false) if no s <= T satisfies the bound.
func (u UniformBounds) SMin(eps float64, lo int) (int, bool) {
	if lo < 1 {
		lo = 1
	}
	for s := lo; s <= u.T; s++ {
		if u.Sum(s) <= eps {
			return s, true
		}
	}
	return 0, false
}

// MixtureBounds evaluates the Theorem 3 bounds for the regime where each
// item's frequency is drawn independently from a distribution R with known
// moments. Only the moments E[R^s] and E[R^{2s}] enter the bounds.
type MixtureBounds struct {
	N       int
	K       int
	T       int
	Moments func(j int) float64 // E[R^j]
}

// B1 returns the Theorem 3 bound
//
//	b1 <= [C(n,k)^2 - C(n,k) C(n-k,k)] * C(t,s)^2 * E[R^{2s}]^k,
//
// the Jensen-relaxed form used in the proof.
func (m MixtureBounds) B1(s int) float64 {
	logNk := stats.LogChoose(m.N, m.K)
	ratio := math.Exp(stats.LogChoose(m.N-m.K, m.K) - logNk)
	logPairs := 2*logNk + math.Log1p(-ratio)
	m2s := m.Moments(2 * s)
	if m2s <= 0 {
		return 0
	}
	return math.Exp(logPairs + 2*stats.LogChoose(m.T, s) + float64(m.K)*math.Log(m2s))
}

// B2 returns the Theorem 3 bound
//
//	b2 <= sum_{g=1}^{k-1} C(n; g,k-g,k-g)
//	      * sum_{i=0}^{s} C(t; i,s-i,s-i) * E[R^{2s}]^{k - ig/(2s)},
//
// following the proof's chain E[R^{2s-i}]^g E[R^s]^{2(k-g)} <=
// E[R^{2s}]^{g(2s-i)/(2s)} E[R^{2s}]^{k-g}.
func (m MixtureBounds) B2(s int) float64 {
	m2s := m.Moments(2 * s)
	if m2s <= 0 {
		return 0
	}
	logM := math.Log(m2s)
	total := 0.0
	for g := 1; g <= m.K-1; g++ {
		logCount := logMultinomial3(m.N, g, m.K-g, m.K-g)
		inner := math.Inf(-1)
		for i := 0; i <= s; i++ {
			if i > m.T || 2*(s-i) > m.T-i {
				continue
			}
			exp := float64(m.K) - float64(i*g)/float64(2*s)
			logTerm := logMultinomial3(m.T, i, s-i, s-i) + exp*logM
			inner = stats.LogSumExp(inner, logTerm)
		}
		if math.IsInf(inner, -1) {
			continue
		}
		total += math.Exp(logCount + inner)
	}
	return total
}

// Sum returns B1(s) + B2(s).
func (m MixtureBounds) Sum(s int) float64 { return m.B1(s) + m.B2(s) }

// SMin searches upward from lo for the first s with Sum(s) <= eps.
func (m MixtureBounds) SMin(eps float64, lo int) (int, bool) {
	if lo < 1 {
		lo = 1
	}
	for s := lo; s <= m.T; s++ {
		if m.Sum(s) <= eps {
			return s, true
		}
	}
	return 0, false
}
