// Package mht implements the multiple hypothesis testing corrections
// Procedure 1 and rule selection apply. Each one rejects a prefix of the
// p-values in ascending order, and ties never split that prefix:
//
//   - Benjamini-Yekutieli, the FDR step-up procedure of the paper's
//     Theorem 5 and the default engine of Procedure 1, valid under
//     arbitrary dependence: BYPrefix returns the length of the rejected
//     prefix of the sorted p-values;
//   - Bonferroni and Holm, the classical FWER procedures (Holm is the
//     uniformly more powerful step-down refinement), and Westfall-Young,
//     the resampling-based min-p step-down procedure, whose null
//     distribution is the per-replicate minimum p-value that
//     montecarlo.MineRange collects while Algorithm 1's replicates are
//     mined (Config.CollectMinPs). Each returns one adjusted p-value per
//     hypothesis, the smallest level at which the procedure would reject
//     it, which is what reports carry: an adjusted p-value is
//     interpretable without knowing the procedure's bookkeeping.
//
// The rejection masks the tests compare these against live in
// internal/oracle.
package mht

import (
	"math"
	"sort"
)

// eulerMascheroni is the gamma constant of the harmonic asymptotic.
const eulerMascheroni = 0.5772156649015328606

// Harmonic returns H(m) = sum_{j=1..m} 1/j. Procedure 1 tests m = C(n, k)
// hypotheses — far beyond exact summation — so values above the cutoff use
// the asymptotic H(m) = ln m + gamma + 1/(2m) - 1/(12m^2), whose error is
// O(m^-4).
func Harmonic(m float64) float64 {
	if m < 1 {
		return 0
	}
	const exactCutoff = 1 << 20
	if m <= exactCutoff {
		n := int(m)
		s := 0.0
		for j := 1; j <= n; j++ {
			s += 1 / float64(j)
		}
		return s
	}
	return math.Log(m) + eulerMascheroni + 1/(2*m) - 1/(12*m*m)
}

// BYPrefix runs the Benjamini-Yekutieli step-up procedure at level beta
// (paper Theorem 5) over the ascending p-values sorted and returns the
// number of them it rejects,
//
//	ell = max{ i : p_(i) <= (i / (m * H(m))) * beta },
//
// which controls FDR at beta under arbitrary dependence. m is the total
// hypothesis count; m <= 0 counts only the given p-values. Procedure 1
// passes m = C(n, k): the hypotheses whose p-values were never computed are
// implicitly non-rejected, which is conservative and exactly what the paper
// prescribes. Ties never split the prefix: the line rises with i, so a
// p-value equal to p_(ell) after it would lie under the line too. The
// rejected set is therefore exactly the p-values at most sorted[ell-1].
func BYPrefix(sorted []float64, beta, m float64) int {
	if m <= 0 {
		m = float64(len(sorted))
	}
	denom := m * Harmonic(m)
	for i := len(sorted); i >= 1; i-- {
		if sorted[i-1] <= float64(i)/denom*beta {
			return i
		}
	}
	return 0
}

// BonferroniAdjust returns the Bonferroni adjusted p-values
// min(1, m * p_i), aligned with the input order: hypothesis i is rejected
// at FWER level alpha exactly when the adjusted value is <= alpha. m
// defaults to len(pvalues) when mTotal <= 0; pass the full hypothesis count
// when only a subset of the family was computed.
func BonferroniAdjust(pvalues []float64, mTotal float64) []float64 {
	m := mTotal
	if m <= 0 {
		m = float64(len(pvalues))
	}
	out := make([]float64, len(pvalues))
	for i, p := range pvalues {
		out[i] = math.Min(1, m*p)
	}
	return out
}

// HolmAdjust returns the Holm step-down adjusted p-values, aligned with the
// input order: with p_(1) <= ... <= p_(n) the sorted inputs, the i-th order
// statistic is adjusted to
//
//	p~_(i) = min(1, max(p~_(i-1), (m - i + 1) * p_(i))),
//
// whose running maximum enforces the monotonicity that makes the step-down
// procedure coherent (a hypothesis can never be rejected while one with a
// smaller p-value is not). Rejecting p~ <= alpha reproduces Holm exactly
// and controls FWER at alpha under arbitrary dependence.
//
// mTotal <= 0 defaults to len(pvalues); pass the full hypothesis count when
// only a subset of the family was computed (Procedure 1 passes C(n, k), at
// which scale Holm's (m - i + 1) multiplier is indistinguishable from
// Bonferroni's m — the step-down refinement only pays off when the rejected
// fraction of the family is non-negligible). A multiplier that would drop
// below 1 (possible when mTotal < len(pvalues)) is clamped to 1.
func HolmAdjust(pvalues []float64, mTotal float64) []float64 {
	n := len(pvalues)
	m := mTotal
	if m <= 0 {
		m = float64(n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pvalues[idx[a]] < pvalues[idx[b]] })
	out := make([]float64, n)
	running := 0.0
	for i := 0; i < n; i++ {
		mult := m - float64(i)
		if mult < 1 {
			mult = 1
		}
		adj := mult * pvalues[idx[i]]
		if adj < running {
			adj = running
		}
		if adj > 1 {
			adj = 1
		}
		running = adj
		out[idx[i]] = adj
	}
	return out
}

// WestfallYoung returns the resampling-based min-p adjusted p-values,
// aligned with the input order. nullMin holds the null distribution of the
// family's minimum p-value: one value per Monte Carlo replicate, each the
// smallest marginal p-value any hypothesis attained in that replicate (the
// per-replicate statistic montecarlo collects under Config.CollectMinPs,
// identically for the independence and swap null models). With Delta =
// len(nullMin) replicates, the i-th order statistic of the observed
// p-values is adjusted to
//
//	p~_(i) = max(p~_(i-1), (1 + #{r : nullMin[r] <= p_(i)}) / (Delta + 1)),
//
// the empirical probability that a null dataset's best hypothesis beats
// p_(i), with the +1 smoothing that keeps a resampled p-value valid and
// never zero (Phipson & Smyth 2010), and a running maximum enforcing
// step-down monotonicity. Rejecting p~ <= alpha controls FWER at about
// alpha — and FWER control implies FDR control at the same level, so the
// procedure slots directly into Procedure 1's beta budget.
//
// Unlike Bonferroni/Holm/BY, no hypothesis count enters: the resampled
// minimum already reflects the joint distribution of every statistic the
// replicates could produce, which is exactly why Westfall-Young recovers
// the power that counting-based corrections give up when tests are strongly
// dependent (itemset supports are: overlapping itemsets share items). An
// empty nullMin adjusts everything to 1 (no evidence, nothing rejectable).
func WestfallYoung(pvalues, nullMin []float64) []float64 {
	n := len(pvalues)
	out := make([]float64, n)
	delta := len(nullMin)
	sortedMin := append([]float64(nil), nullMin...)
	sort.Float64s(sortedMin)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pvalues[idx[a]] < pvalues[idx[b]] })
	running := 0.0
	for i := 0; i < n; i++ {
		p := pvalues[idx[i]]
		cnt := sort.Search(delta, func(j int) bool { return sortedMin[j] > p })
		adj := float64(1+cnt) / float64(delta+1)
		if adj < running {
			adj = running
		}
		running = adj
		out[idx[i]] = adj
	}
	return out
}
