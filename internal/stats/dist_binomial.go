package stats

import "math"

// Binomial is the distribution of the number of successes in N independent
// Bernoulli(P) trials. The paper's Procedure 1 computes per-itemset p-values
// Pr(Bin(t, f_X) >= s_X); the random dataset model draws per-item occurrence
// counts from Bin(t, f_i).
type Binomial struct {
	N int
	P float64
}

// Mean returns N*P.
func (b Binomial) Mean() float64 { return float64(b.N) * b.P }

// Variance returns N*P*(1-P).
func (b Binomial) Variance() float64 { return float64(b.N) * b.P * (1 - b.P) }

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

// LogUpperTail returns ln Pr(X >= s), staying in log space when the tail
// underflows float64 (supports deep in the tail have p-values below 1e-308).
func (b Binomial) LogUpperTail(s int) float64 {
	p := b.UpperTail(s)
	if p > 1e-290 {
		return math.Log(p)
	}
	// Sum the PMF from s upward in log space; the terms decay geometrically
	// with ratio < (n-s)p / (s(1-p)), so a few hundred terms suffice.
	logSum := math.Inf(-1)
	for k := s; k <= b.N; k++ {
		lp := b.LogPMF(k)
		logSum = LogSumExp(logSum, lp)
		if lp < logSum-46 { // additional terms below 1e-20 relative
			break
		}
	}
	return logSum
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

// Sample draws one variate. For p <= 1/2 it counts successes via geometric
// skips, costing O(np) expected time; for p > 1/2 it samples the complement.
// Exact (no normal approximation), which the statistical tests rely on.
func (b Binomial) Sample(r *RNG) int {
	if !(b.P > 0) {
		return 0
	}
	if b.P >= 1 {
		return b.N
	}
	if b.P > 0.5 {
		return b.N - Binomial{N: b.N, P: 1 - b.P}.Sample(r)
	}
	// Successive gaps between successes are Geometric(p); position advances
	// by gap+1 each success, and the walk ends once it would pass N.
	g := NewGeometricGap(b.P)
	count, pos := 0, 0
	for {
		gap, ok := g.Below(r.Float64Open(), b.N-pos)
		if !ok {
			return count
		}
		pos += gap + 1
		count++
	}
}
