package stats

import (
	"math"
	"sync"
)

// This file implements the special functions behind the exact distribution
// tails: log-gamma helpers, the regularized incomplete beta function (for
// Binomial tails) and the regularized incomplete gamma functions (for Poisson
// tails). The continued-fraction evaluations follow the modified Lentz
// algorithm.

const (
	cfMaxIter = 500
	cfEps     = 1e-15
	cfTiny    = 1e-300
)

// LogGamma returns ln(Gamma(x)) for x > 0.
func LogGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// logFactCache memoizes ln(n!) for small n; the mining and Chen-Stein code
// calls LogFactorial in tight loops with small arguments.
var (
	logFactOnce  sync.Once
	logFactSmall []float64
)

const logFactCacheSize = 4096

func initLogFact() {
	logFactSmall = make([]float64, logFactCacheSize)
	for n := 2; n < logFactCacheSize; n++ {
		logFactSmall[n] = logFactSmall[n-1] + math.Log(float64(n))
	}
}

// LogFactorial returns ln(n!). It panics for negative n.
func LogFactorial(n int) float64 {
	if n < 0 {
		panic("stats: LogFactorial of negative n")
	}
	logFactOnce.Do(initLogFact)
	if n < logFactCacheSize {
		return logFactSmall[n]
	}
	return LogGamma(float64(n) + 1)
}

// LogChoose returns ln(C(n, k)), with LogChoose(n, k) = -Inf when k < 0 or
// k > n (the binomial coefficient is zero there).
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1]. The Binomial upper tail is
// Pr(Bin(n,p) >= s) = I_p(s, n-s+1).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		panic("stats: RegIncBeta with non-positive shape")
	}
	// Front factor x^a (1-x)^b / (a B(a,b)), computed in log space.
	logFront := a*math.Log(x) + b*math.Log1p(-x) +
		LogGamma(a+b) - LogGamma(a) - LogGamma(b)
	// Use the continued fraction in its rapidly converging region.
	if x < (a+1)/(a+b+2) {
		return math.Exp(logFront) * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(logFront)*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function by
// the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < cfTiny {
		d = cfTiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= cfMaxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < cfTiny {
			d = cfTiny
		}
		c = 1 + aa/c
		if math.Abs(c) < cfTiny {
			c = cfTiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < cfTiny {
			d = cfTiny
		}
		c = 1 + aa/c
		if math.Abs(c) < cfTiny {
			c = cfTiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < cfEps {
			return h
		}
	}
	return h // converged to working precision or exhausted iterations
}

// RegLowerGamma returns the regularized lower incomplete gamma function
// P(a, x) = gamma(a, x) / Gamma(a) for a > 0, x >= 0. The Poisson upper tail
// is Pr(Poisson(lambda) >= k) = P(k, lambda) for integer k >= 1.
func RegLowerGamma(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		panic("stats: RegLowerGamma domain error")
	case x == 0:
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}

// RegUpperGamma returns Q(a, x) = 1 - P(a, x).
func RegUpperGamma(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		panic("stats: RegUpperGamma domain error")
	case x == 0:
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaCF(a, x)
}

// gammaSeries evaluates P(a, x) by its power series (good for x < a+1).
func gammaSeries(a, x float64) float64 {
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < cfMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*cfEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-LogGamma(a))
}

// gammaCF evaluates Q(a, x) by continued fraction (good for x >= a+1).
func gammaCF(a, x float64) float64 {
	b := x + 1 - a
	c := 1 / cfTiny
	d := 1 / b
	h := d
	for i := 1; i <= cfMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < cfTiny {
			d = cfTiny
		}
		c = b + an/c
		if math.Abs(c) < cfTiny {
			c = cfTiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < cfEps {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-LogGamma(a))
}

// LogSumExp returns log(exp(a) + exp(b)) robustly.
func LogSumExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	m := math.Max(a, b)
	return m + math.Log(math.Exp(a-m)+math.Exp(b-m))
}
