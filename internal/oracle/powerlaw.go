package oracle

import "sigfim/internal/stats"

// FitPowerLaw is the plain bisection stats.FitPowerLaw certifies its way
// around: every step sums the clamped power law over all n ranks, 41 sums
// on the benchmark profiles. stats.FitPowerLaw must return its exponent bit
// for bit.
func FitPowerLaw(n int, fmin, fmax, targetSum float64) stats.TruncatedPowerLaw {
	if fmin < 0 || fmax <= 0 || fmin > fmax {
		panic("oracle: FitPowerLaw invalid clamp range")
	}
	if targetSum < float64(n)*fmin {
		targetSum = float64(n) * fmin
	}
	if targetSum > float64(n)*fmax {
		targetSum = float64(n) * fmax
	}
	mk := func(theta float64) stats.TruncatedPowerLaw {
		return stats.TruncatedPowerLaw{N: n, Theta: theta, C: fmax, Min: fmin, Max: fmax}
	}
	sum := func(z stats.TruncatedPowerLaw) float64 {
		total := 0.0
		for r := 1; r <= z.N; r++ {
			total += z.Freq(r)
		}
		return total
	}
	// Sum is decreasing in theta: theta=0 gives n*fmax, theta->inf gives
	// roughly fmax + (n-1)*fmin.
	lo, hi := 0.0, 1.0
	for sum(mk(hi)) > targetSum && hi < 64 {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if sum(mk(mid)) > targetSum {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12 {
			break
		}
	}
	return mk((lo + hi) / 2)
}
