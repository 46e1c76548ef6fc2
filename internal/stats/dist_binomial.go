package stats

import "math"

// Binomial is the distribution of the number of successes in N independent
// Bernoulli(P) trials. The paper's Procedure 1 computes per-itemset p-values
// Pr(Bin(t, f_X) >= s_X).
type Binomial struct {
	N int
	P float64
}

// LogPMF returns ln Pr(X = k).
func (b Binomial) LogPMF(k int) float64 {
	if k < 0 || k > b.N {
		return math.Inf(-1)
	}
	if b.P == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if b.P == 1 {
		if k == b.N {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(b.N, k) + float64(k)*math.Log(b.P) +
		float64(b.N-k)*math.Log1p(-b.P)
}

// PMF returns Pr(X = k).
func (b Binomial) PMF(k int) float64 { return math.Exp(b.LogPMF(k)) }

// CDF returns Pr(X <= k).
func (b Binomial) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= b.N {
		return 1
	}
	return 1 - b.UpperTail(k+1)
}

// UpperTail returns the survival probability Pr(X >= s), computed exactly via
// the regularized incomplete beta identity Pr(X >= s) = I_p(s, n-s+1). This
// is the p-value of Procedure 1's per-itemset test.
func (b Binomial) UpperTail(s int) float64 {
	if s <= 0 {
		return 1
	}
	if s > b.N {
		return 0
	}
	if b.P <= 0 {
		return 0
	}
	if b.P >= 1 {
		return 1
	}
	return RegIncBeta(float64(s), float64(b.N-s+1), b.P)
}

// Quantile returns the smallest k with CDF(k) >= q, for q in [0, 1].
func (b Binomial) Quantile(q float64) int {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return b.N
	}
	lo, hi := 0, b.N
	for lo < hi {
		mid := (lo + hi) / 2
		if b.CDF(mid) >= q {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
