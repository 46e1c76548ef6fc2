// Package core implements the paper's two discovery procedures on top of the
// substrates:
//
//   - Procedure 1 (Section 3.1): mine F_k(s_min), attach to each itemset the
//     exact Binomial p-value of its support under the independence null, and
//     reject by Benjamini-Yekutieli with m = C(n, k) hypotheses, bounding
//     the FDR by beta.
//   - Procedure 2 (Section 3.2): scan the support ladder s_i = s_min + 2^i,
//     testing at each level the null hypothesis that the observed count
//     Q_{k,s_i} is a draw from Poisson(lambda_i); reject when the Poisson
//     p-value is below alpha_i AND Q_{k,s_i} >= beta_i * lambda_i. The first
//     rejected level is the returned threshold s*; by Theorem 6 the family
//     F_k(s*) is, with confidence 1 - alpha, statistically significant with
//     FDR at most beta.
package core

import "sigfim/internal/mining"

// SignificantItemset is one discovery of Procedure 1.
type SignificantItemset struct {
	Items   mining.Itemset
	Support int
	// PValue is Pr(Bin(t, f_X) >= support) under the independence null.
	PValue float64
}

// Procedure1Result reports the BY-based baseline.
type Procedure1Result struct {
	// K is the itemset size analyzed.
	K int
	// SMin is the mining threshold (Poisson threshold from Algorithm 1).
	SMin int
	// NumMined is |F_k(s_min)|, the number of hypotheses actually tested.
	NumMined int
	// M is the total hypothesis count C(n, k) used by Theorem 5.
	M float64
	// Beta is the FDR budget.
	Beta float64
	// Correction names the multiple-testing correction the rejections were
	// made under (one of the Correction* constants; CorrectionBY is the
	// paper's Theorem 5 procedure).
	Correction string
	// FamilySize is |R|, the exact number of rejected hypotheses.
	FamilySize int
	// Family lists the rejected (= flagged significant) itemsets, ascending
	// by p-value, capped at an internal materialization limit; FamilySize is
	// always exact.
	Family []SignificantItemset
}

// Step records one comparison of Procedure 2's threshold ladder.
type Step struct {
	// I is the comparison index (0-based).
	I int
	// S is the tested support threshold s_i = s_min + 2^i (s_0 = s_min).
	S int
	// Q is the observed count Q_{k,s_i} in the real dataset.
	Q int64
	// Lambda is the null expectation lambda_i = E[Q̂_{k,s_i}].
	Lambda float64
	// PValue is Pr(Poisson(lambda_i) >= Q).
	PValue float64
	// AlphaI and BetaI are this comparison's slice of the error budgets.
	AlphaI, BetaI float64
	// CountOK reports whether Q >= BetaI * Lambda (the FDR strengthening).
	CountOK bool
	// Rejected reports whether the null was rejected at this level.
	Rejected bool
}

// Procedure2Result reports the support-threshold methodology.
type Procedure2Result struct {
	// K is the itemset size analyzed.
	K int
	// SMin is the Poisson threshold the ladder starts from.
	SMin int
	// SMax is the maximum item support in the real dataset.
	SMax int
	// H is the number of comparisons ⌊log2(s_max - s_min)⌋ + 1.
	H int
	// Alpha and Beta are the confidence and FDR budgets.
	Alpha, Beta float64
	// Found reports whether any level was rejected; when false, SStar is
	// conventionally infinite (the paper's s* = ∞).
	Found bool
	// SStar is the selected threshold s* (meaningful only when Found).
	SStar int
	// Q is Q_{k,s*}, the number of k-itemsets flagged significant.
	Q int64
	// Lambda is lambda(s*), the expected count under the null.
	Lambda float64
	// Steps traces every comparison performed, in ladder order.
	Steps []Step
}
