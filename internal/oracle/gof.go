package oracle

import (
	"math"

	"sigfim/internal/stats"
)

// Goodness-of-fit checks the test suite compares against: chi-square tests
// against discrete distributions and total variation distance between an
// empirical count distribution and a theoretical PMF. The paper's core
// claim — Q̂_{k,s} is approximately Poisson above s_min — is validated with
// these.

// ChiSquareResult reports a chi-square goodness-of-fit test.
type ChiSquareResult struct {
	Statistic float64 // sum (O-E)^2 / E over the binned support
	DF        int     // degrees of freedom after binning
	PValue    float64 // upper tail of chi-square(DF) at Statistic
}

// ChiSquareTest compares observed counts against expected counts. Adjacent
// cells with expected count below minExpected (commonly 5) are pooled, the
// standard remedy for sparse cells. dfAdjust subtracts estimated-parameter
// degrees of freedom.
func ChiSquareTest(observed []float64, expected []float64, minExpected float64, dfAdjust int) ChiSquareResult {
	if len(observed) != len(expected) {
		panic("oracle: chi-square length mismatch")
	}
	var obsPooled, expPooled []float64
	accO, accE := 0.0, 0.0
	for i := range observed {
		accO += observed[i]
		accE += expected[i]
		if accE >= minExpected {
			obsPooled = append(obsPooled, accO)
			expPooled = append(expPooled, accE)
			accO, accE = 0, 0
		}
	}
	if accE > 0 {
		if len(expPooled) > 0 {
			obsPooled[len(obsPooled)-1] += accO
			expPooled[len(expPooled)-1] += accE
		} else {
			obsPooled = append(obsPooled, accO)
			expPooled = append(expPooled, accE)
		}
	}
	stat := 0.0
	for i := range obsPooled {
		d := obsPooled[i] - expPooled[i]
		stat += d * d / expPooled[i]
	}
	df := len(obsPooled) - 1 - dfAdjust
	if df < 1 {
		df = 1
	}
	return ChiSquareResult{
		Statistic: stat,
		DF:        df,
		PValue:    ChiSquareUpperTail(stat, df),
	}
}

// ChiSquareUpperTail returns Pr(ChiSq(df) >= x).
func ChiSquareUpperTail(x float64, df int) float64 {
	if x <= 0 {
		return 1
	}
	return stats.RegUpperGamma(float64(df)/2, x/2)
}

// TotalVariationPoisson returns the total variation distance between the
// empirical distribution of the integer sample and Poisson(lambda):
// (1/2) sum_k |emp(k) - pmf(k)|. Small values certify the Poisson
// approximation that underlies the paper's Theorems 2-3.
func TotalVariationPoisson(sample []int, lambda float64) float64 {
	n := len(sample)
	if n == 0 {
		return 0
	}
	maxK := 0
	counts := map[int]int{}
	for _, v := range sample {
		counts[v]++
		if v > maxK {
			maxK = v
		}
	}
	p := stats.Poisson{Lambda: lambda}
	// Sum over observed support plus enough Poisson mass beyond it.
	limit := maxK
	for p.UpperTail(limit+1) > 1e-12 {
		limit++
	}
	tv := 0.0
	for k := 0; k <= limit; k++ {
		emp := float64(counts[k]) / float64(n)
		tv += math.Abs(emp - p.PMF(k))
	}
	tv += p.UpperTail(limit + 1) // unobserved far tail
	return tv / 2
}
