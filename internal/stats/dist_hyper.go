package stats

import "math"

// Hypergeometric is the distribution of the number of successes in Draws
// draws without replacement from a population of size N containing K
// successes. Fisher's exact test — the margin-conditional significance test
// for association rules and 2x2 contingency tables — is its upper tail.
type Hypergeometric struct {
	N     int // population size
	K     int // successes in the population
	Draws int // sample size
}

// supportRange returns the attainable values [lo, hi].
func (h Hypergeometric) supportRange() (lo, hi int) {
	lo = h.Draws + h.K - h.N
	if lo < 0 {
		lo = 0
	}
	hi = h.Draws
	if h.K < hi {
		hi = h.K
	}
	return
}

// LogPMF returns ln Pr(X = x).
func (h Hypergeometric) LogPMF(x int) float64 {
	lo, hi := h.supportRange()
	if x < lo || x > hi {
		return math.Inf(-1)
	}
	return LogChoose(h.K, x) + LogChoose(h.N-h.K, h.Draws-x) - LogChoose(h.N, h.Draws)
}

// PMF returns Pr(X = x).
func (h Hypergeometric) PMF(x int) float64 { return math.Exp(h.LogPMF(x)) }

// UpperTail returns Pr(X >= x) — the Fisher exact p-value when x is the
// observed joint count of a 2x2 table with these margins.
func (h Hypergeometric) UpperTail(x int) float64 {
	lo, hi := h.supportRange()
	if x <= lo {
		return 1
	}
	if x > hi {
		return 0
	}
	sum := 0.0
	for v := x; v <= hi; v++ {
		sum += h.PMF(v)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// FisherExactUpper returns the one-sided Fisher exact p-value for observing
// at least `joint` co-occurrences given the margins: suppA transactions
// contain A, suppB contain B, out of t total. Under the null (A and B
// independent given margins), the joint count is Hypergeometric(t, suppA,
// suppB).
func FisherExactUpper(t, suppA, suppB, joint int) float64 {
	return Hypergeometric{N: t, K: suppA, Draws: suppB}.UpperTail(joint)
}
