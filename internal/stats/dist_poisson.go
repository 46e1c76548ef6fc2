package stats

import "math"

// Poisson is the Poisson distribution with rate Lambda. Procedure 2's null
// hypothesis is that the observed count Q_{k,s} of frequent k-itemsets is a
// draw from Poisson(lambda_s); its p-value is the exact upper tail below.
type Poisson struct {
	Lambda float64
}

// LogPMF returns ln Pr(X = k).
func (p Poisson) LogPMF(k int) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if p.Lambda == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	return float64(k)*math.Log(p.Lambda) - p.Lambda - LogFactorial(k)
}

// PMF returns Pr(X = k).
func (p Poisson) PMF(k int) float64 { return math.Exp(p.LogPMF(k)) }

// UpperTail returns Pr(X >= s) = P(s, lambda) exactly (regularized lower
// incomplete gamma). This is the Poisson p-value used by Procedure 2.
func (p Poisson) UpperTail(s int) float64 {
	if s <= 0 {
		return 1
	}
	if p.Lambda == 0 {
		return 0
	}
	return RegLowerGamma(float64(s), p.Lambda)
}
