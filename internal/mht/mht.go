// Package mht implements the multiple hypothesis testing corrections the
// significance pipeline selects between:
//
//   - Bonferroni and Holm, the classical FWER procedures (Holm is the
//     uniformly more powerful step-down refinement);
//   - Benjamini-Yekutieli, the FDR step-up procedure of the paper's
//     Theorem 5 and the default engine of Procedure 1, valid under
//     arbitrary dependence;
//   - Westfall-Young, the resampling-based min-p step-down procedure,
//     whose null distribution is the per-replicate minimum p-value that
//     montecarlo.MineRange collects while Algorithm 1's replicates are
//     mined (Config.CollectMinPs).
//
// Two API shapes coexist. The mask functions (Bonferroni, Holm,
// BenjaminiYekutieli) answer "which hypotheses does this procedure reject
// at this level" directly. The adjusted-p functions
// (BonferroniAdjust, HolmAdjust, WestfallYoung) instead return one adjusted
// p-value per hypothesis — the smallest level at which the procedure would
// reject it — which composes with any downstream threshold via
// RejectAdjusted and is what reports should carry: an adjusted p-value is
// interpretable without knowing the procedure's bookkeeping.
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

// stepUp runs a generic step-up procedure: find the largest i (1-based on
// the sorted p-values) with p_(i) <= threshold(i), and reject hypotheses
// 1..i. Returns the rejection mask aligned with the input order.
func stepUp(pvalues []float64, threshold func(i int) float64) []bool {
	n := len(pvalues)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pvalues[idx[a]] < pvalues[idx[b]] })
	cut := 0 // number of rejections
	for i := n; i >= 1; i-- {
		if pvalues[idx[i-1]] <= threshold(i) {
			cut = i
			break
		}
	}
	reject := make([]bool, n)
	for i := 0; i < cut; i++ {
		reject[idx[i]] = true
	}
	return reject
}

// Bonferroni rejects hypothesis i when p_i <= alpha/m, controlling the
// family-wise error rate (the probability of even one false rejection) at
// alpha under arbitrary dependence. Returns the rejection mask aligned with
// the input order. m defaults to len(pvalues) when mTotal <= 0; pass the
// full hypothesis count (Procedure 1 passes C(n, k)) when only a subset of
// p-values was computed — the uncomputed hypotheses are implicitly
// non-rejected, which is conservative.
func Bonferroni(pvalues []float64, alpha float64, mTotal float64) []bool {
	m := mTotal
	if m <= 0 {
		m = float64(len(pvalues))
	}
	reject := make([]bool, len(pvalues))
	if m == 0 {
		return reject
	}
	thr := alpha / m
	for i, p := range pvalues {
		reject[i] = p <= thr
	}
	return reject
}

// Holm is the step-down refinement of Bonferroni: the sorted p-values
// p_(1) <= ... <= p_(m) are compared against alpha/(m-i+1) in order,
// stopping at the first failure, and hypotheses before the stopping point
// are rejected. Returns the rejection mask aligned with the input order.
// Uniformly more powerful than Bonferroni with the same FWER guarantee
// under arbitrary dependence; here m is len(pvalues) — use HolmAdjust with
// an explicit mTotal when only a subset of the family was computed.
func Holm(pvalues []float64, alpha float64) []bool {
	n := len(pvalues)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pvalues[idx[a]] < pvalues[idx[b]] })
	reject := make([]bool, n)
	for i := 0; i < n; i++ {
		if pvalues[idx[i]] <= alpha/float64(n-i) {
			reject[idx[i]] = true
		} else {
			break
		}
	}
	return reject
}

// BenjaminiYekutieli runs the BY step-up procedure at level beta with an
// explicit total hypothesis count mTotal (paper Theorem 5): reject the
// smallest ell p-values where
//
//	ell = max{ i : p_(i) <= (i / (m * H(m))) * beta },
//
// which controls FDR at beta under arbitrary dependence. mTotal <= 0
// defaults to len(pvalues). Procedure 1 passes mTotal = C(n, k) — the
// hypotheses whose p-values were never computed are implicitly non-rejected,
// which is conservative and exactly what the paper prescribes.
func BenjaminiYekutieli(pvalues []float64, beta float64, mTotal float64) []bool {
	m := mTotal
	if m <= 0 {
		m = float64(len(pvalues))
	}
	if m == 0 {
		return make([]bool, len(pvalues))
	}
	denom := m * Harmonic(m)
	return stepUp(pvalues, func(i int) float64 { return float64(i) / denom * beta })
}

// BonferroniAdjust returns the Bonferroni adjusted p-values
// min(1, m * p_i), aligned with the input order: hypothesis i is rejected
// at FWER level alpha exactly when the adjusted value is <= alpha
// (RejectAdjusted). m defaults to len(pvalues) when mTotal <= 0; pass the
// full hypothesis count when only a subset of the family was computed.
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

// RejectAdjusted converts adjusted p-values into a rejection mask at level
// alpha: reject[i] = adjusted[i] <= alpha. Because every *Adjust function
// returns monotone-coherent values, the mask is always downward closed in
// the raw p-value order.
func RejectAdjusted(adjusted []float64, alpha float64) []bool {
	reject := make([]bool, len(adjusted))
	for i, a := range adjusted {
		reject[i] = a <= alpha
	}
	return reject
}

// EmpiricalFDR computes V/R — the realized fraction of false rejections —
// given a rejection mask and ground-truth null indicators (isNull[i] true
// when hypothesis i is a true null). It is the simulation-side check that a
// procedure's FDR guarantee holds: averaging EmpiricalFDR over independent
// trials estimates the procedure's actual FDR. Returns 0 when nothing was
// rejected, matching the FDR convention E[V/max(R,1)].
func EmpiricalFDR(reject []bool, isNull []bool) float64 {
	v, r := 0, 0
	for i, rej := range reject {
		if !rej {
			continue
		}
		r++
		if isNull[i] {
			v++
		}
	}
	if r == 0 {
		return 0
	}
	return float64(v) / float64(r)
}

// Power computes the fraction of false nulls (true signals) that were
// rejected — the procedure's sensitivity in a simulation with known ground
// truth, the natural companion to EmpiricalFDR. Returns 0 when the ground
// truth contains no signals.
func Power(reject []bool, isNull []bool) float64 {
	caught, total := 0, 0
	for i, null := range isNull {
		if null {
			continue
		}
		total++
		if reject[i] {
			caught++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(caught) / float64(total)
}
