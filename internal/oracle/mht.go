package oracle

import (
	"sort"

	"sigfim/internal/mht"
)

// The multiple-testing masks answer "which hypotheses does this procedure
// reject at this level" directly, in input order. Production runs each
// correction as a rejected prefix of the sorted p-values (mht.BYPrefix and
// the mht *Adjust functions); the tests hold those against these masks.

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
// under arbitrary dependence; here m is len(pvalues) — use mht.HolmAdjust
// with an explicit mTotal when only a subset of the family was computed.
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
	denom := m * mht.Harmonic(m)
	return stepUp(pvalues, func(i int) float64 { return float64(i) / denom * beta })
}

// BenjaminiHochberg is the BH step-up procedure at level q with
// m = len(pvalues): reject the smallest ell p-values where
// ell = max{ i : p_(i) <= (i / m) * q }, which controls FDR at q under
// independence (and positive dependence). Benjamini-Yekutieli divides the
// same line by H(m), so BH is the reference BY's extra caution is measured
// against.
func BenjaminiHochberg(pvalues []float64, q float64) []bool {
	m := float64(len(pvalues))
	if m == 0 {
		return nil
	}
	return stepUp(pvalues, func(i int) float64 { return float64(i) / m * q })
}

// RejectAdjusted converts adjusted p-values into a rejection mask at level
// alpha: reject[i] = adjusted[i] <= alpha. Because every mht *Adjust
// function returns monotone-coherent values, the mask is always downward
// closed in the raw p-value order.
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
