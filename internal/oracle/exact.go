package oracle

import (
	"math"

	"sigfim/internal/stats"
)

// Exact small-scale computations used to validate both the analytic bounds
// and the Monte Carlo estimator: the joint tail probability of two
// overlapping itemsets' supports, and the exact b1/b2 sums by enumeration.

// JointTail returns Pr(sup(X) >= s AND sup(Y) >= s) exactly for two itemsets
// under the independence model, where fX, fY are the itemsets' occurrence
// probabilities per transaction and fU is the probability that a transaction
// contains X ∪ Y. A transaction falls in one of four categories — both
// (prob fU), X-only (fX-fU), Y-only (fY-fU), neither — and a dynamic program
// over transactions with support counts capped at s computes the joint tail
// in O(t s^2) time.
func JointTail(t int, fX, fY, fU float64, s int) float64 {
	if s <= 0 {
		return 1
	}
	pb := fU
	px := fX - fU
	py := fY - fU
	if px < 0 {
		px = 0
	}
	if py < 0 {
		py = 0
	}
	pn := 1 - pb - px - py
	if pn < 0 {
		pn = 0
	}
	// dp[u][w] = probability that capped supports are (u, w).
	cur := make([][]float64, s+1)
	next := make([][]float64, s+1)
	for i := range cur {
		cur[i] = make([]float64, s+1)
		next[i] = make([]float64, s+1)
	}
	cur[0][0] = 1
	capAdd := func(v int) int {
		if v >= s {
			return s
		}
		return v
	}
	for i := 0; i < t; i++ {
		for u := 0; u <= s; u++ {
			for w := 0; w <= s; w++ {
				next[u][w] = 0
			}
		}
		for u := 0; u <= s; u++ {
			for w := 0; w <= s; w++ {
				p := cur[u][w]
				if p == 0 {
					continue
				}
				next[capAdd(u+1)][capAdd(w+1)] += p * pb
				next[capAdd(u+1)][w] += p * px
				next[u][capAdd(w+1)] += p * py
				next[u][w] += p * pn
			}
		}
		cur, next = next, cur
	}
	return cur[s][s]
}

// ExactPairBounds computes b1(s) and b2(s) exactly (not as upper bounds) by
// enumerating every ordered pair of overlapping k-itemsets, using JointTail
// for the cross moments. Exponential in n; for validation on small
// universes only.
func ExactPairBounds(freqs []float64, t, k, s int) (b1, b2 float64) {
	n := len(freqs)
	sets := enumerateK(n, k)
	pX := make([]float64, len(sets))
	fProd := make([]float64, len(sets))
	for i, set := range sets {
		prod := 1.0
		for _, it := range set {
			prod *= freqs[it]
		}
		fProd[i] = prod
		pX[i] = stats.Binomial{N: t, P: prod}.UpperTail(s)
	}
	for i, x := range sets {
		for j, y := range sets {
			g := overlap(x, y)
			if g == 0 {
				continue
			}
			b1 += pX[i] * pX[j]
			if i == j {
				continue
			}
			// The joint tail is at most the smaller marginal tail; pairs
			// whose ceiling is below 1e-14 cannot move the bound at any
			// useful eps, so skip the O(t s^2) DP for them.
			if math.Min(pX[i], pX[j]) < 1e-14 {
				continue
			}
			// fU = product over X ∪ Y = fX * fY / f_{X∩Y}.
			fInter := 1.0
			for _, it := range x {
				if contains(y, it) {
					fInter *= freqs[it]
				}
			}
			fU := fProd[i] * fProd[j] / fInter
			b2 += JointTail(t, fProd[i], fProd[j], fU, s)
		}
	}
	return b1, b2
}

// enumerateK lists all k-subsets of [0, n).
func enumerateK(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := start; i < n; i++ {
			idx[pos] = i
			rec(pos+1, i+1)
		}
	}
	if k >= 1 && k <= n {
		rec(0, 0)
	}
	return out
}

func overlap(a, b []int) int {
	g := 0
	for _, x := range a {
		if contains(b, x) {
			g++
		}
	}
	return g
}

func contains(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}

// VariationDistanceBound returns the Theorem 1 certificate b1(s) + b2(s)
// computed exactly for a small universe; the total variation distance
// between L(Q̂_{k,s}) and Poisson(lambda) is at most this value.
func VariationDistanceBound(freqs []float64, t, k, s int) float64 {
	b1, b2 := ExactPairBounds(freqs, t, k, s)
	return b1 + b2
}

// SMinExact scans s upward for the first s with the exact bound below eps.
func SMinExact(freqs []float64, t, k int, eps float64) (int, bool) {
	for s := 1; s <= t; s++ {
		if VariationDistanceBound(freqs, t, k, s) <= eps {
			return s, true
		}
	}
	return 0, false
}
