package core

import (
	"fmt"
	"math"

	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/stats"
)

// LambdaFunc returns the null expectation lambda(s) = E[Q̂_{k,s}] for
// supports s >= s_min. Procedure 2 normally receives montecarlo.Result's
// Lambda method, per the paper ("estimates for the lambda_i can be obtained
// from the same random datasets generated in Algorithm 1").
type LambdaFunc func(s int) float64

// BudgetSplit selects how the error budgets alpha and beta are divided over
// the ladder's h comparisons. Theorem 6 holds for ANY split with
// sum(alpha_i) = alpha and sum(1/beta_i) <= beta; the paper's experiments
// use the equal split, the only one implemented.
type BudgetSplit int

// SplitEqual assigns alpha_i = alpha/h and 1/beta_i = beta/h — the paper's
// experimental configuration.
const SplitEqual BudgetSplit = 0

// splitWeights returns normalized weights w_i summing to 1 for h levels.
func (BudgetSplit) splitWeights(h int) []float64 {
	w := make([]float64, h)
	for i := range w {
		w[i] = 1 / float64(h)
	}
	return w
}

// Procedure2Ex determines the support threshold s* such that, with
// confidence 1 - alpha, F_k(s*) is a family of significant k-itemsets with
// FDR <= beta.
//
// The ladder tests s_0 = sMin and s_i = sMin + 2^i for 1 <= i < h, with
// h = ⌊log2(sMax - sMin)⌋ + 1 and the budgets split by split: SplitEqual
// gives alpha_i = alpha/h and 1/beta_i = beta/h (the paper's experimental
// choice alpha_i = beta_i^{-1} = 0.05/h). Level i rejects its null when
//
//	Pr(Poisson(lambda_i) >= Q_{k,s_i}) <= alpha_i  AND  Q_{k,s_i} >= beta_i * lambda_i,
//
// and s* is the first rejected level (the minimum s_i).
//
// workers bounds the counting pass (0 = NumCPU, 1 = serial) and algo picks
// its miner (mining.Auto = Eclat with automatic layout). The result is
// identical for every worker count and algorithm: the counting pass is an
// integer support histogram, which every miner fills identically.
func Procedure2Ex(v *dataset.Vertical, k, sMin int, lambda LambdaFunc, alpha, beta float64, split BudgetSplit, workers int, algo mining.Algorithm) (*Procedure2Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if sMin < 1 {
		return nil, fmt.Errorf("core: sMin must be >= 1, got %d", sMin)
	}
	if alpha <= 0 || alpha >= 1 || beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("core: alpha and beta must be in (0,1), got %v, %v", alpha, beta)
	}
	sMax := v.MaxItemSupport()
	res := &Procedure2Result{
		K:     k,
		SMin:  sMin,
		SMax:  sMax,
		Alpha: alpha,
		Beta:  beta,
	}
	if sMax <= sMin {
		// No support level above the Poisson threshold exists in the real
		// dataset beyond s_min itself; test the single level s_0 = s_min
		// when it is attainable, otherwise return s* = ∞ directly.
		if sMax < sMin {
			res.H = 0
			return res, nil
		}
		res.H = 1
	} else {
		res.H = int(math.Floor(math.Log2(float64(sMax-sMin)))) + 1
	}
	h := res.H
	weights := split.splitWeights(h)

	// One histogram pass at s_min yields every Q_{k,s_i}.
	hist := mining.SupportHistogramAlgoScratch(v, k, sMin, workers, algo, nil)
	qCurve := mining.CumulativeQ(hist)
	qAt := func(s int) int64 {
		if s >= len(qCurve) {
			return 0
		}
		if s < 0 {
			s = 0
		}
		return qCurve[s]
	}

	for i := 0; i < h; i++ {
		s := sMin
		if i > 0 {
			step := 1 << uint(i)
			s = sMin + step
		}
		// alpha_i = w_i * alpha; 1/beta_i = w_i * beta, so
		// sum(alpha_i) = alpha and sum(1/beta_i) = beta as Theorem 6 needs.
		alphaI := weights[i] * alpha
		betaI := 1 / (weights[i] * beta)
		q := qAt(s)
		lam := lambda(s)
		p := stats.Poisson{Lambda: lam}.UpperTail(int(q))
		countOK := float64(q) >= betaI*lam
		rejected := p <= alphaI && countOK && q > 0
		res.Steps = append(res.Steps, Step{
			I: i, S: s, Q: q, Lambda: lam, PValue: p,
			AlphaI: alphaI, BetaI: betaI,
			CountOK: countOK, Rejected: rejected,
		})
		if rejected {
			res.Found = true
			res.SStar = s
			res.Q = q
			res.Lambda = lam
			return res, nil
		}
	}
	return res, nil
}
