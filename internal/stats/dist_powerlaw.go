package stats

import "math"

// TruncatedPowerLaw models item frequencies f(rank) = C * rank^(-Theta)
// clamped to [Min, Max] over ranks 1..N. The synthetic benchmark profiles
// (internal/synth) fit Theta and C so that the frequency range and the mean
// transaction length (sum of frequencies) match a target dataset; this is the
// standard shape of item popularity in the FIMI market-basket benchmarks.
type TruncatedPowerLaw struct {
	N     int     // number of ranks (items)
	Theta float64 // decay exponent, >= 0
	C     float64 // scale
	Min   float64 // clamp floor
	Max   float64 // clamp ceiling
}

// Freq returns the frequency assigned to rank r in [1, N].
func (z TruncatedPowerLaw) Freq(r int) float64 {
	if r < 1 || r > z.N {
		panic("stats: power-law rank out of range")
	}
	f := z.C * math.Pow(float64(r), -z.Theta)
	if f > z.Max {
		f = z.Max
	}
	if f < z.Min {
		f = z.Min
	}
	return f
}

// Sum returns the sum of frequencies over all ranks; this equals the expected
// transaction length of a dataset generated with these per-item inclusion
// probabilities.
func (z TruncatedPowerLaw) Sum() float64 {
	total := 0.0
	for r := 1; r <= z.N; r++ {
		total += z.Freq(r)
	}
	return total
}

// Frequencies materializes the full frequency vector, rank order (descending).
func (z TruncatedPowerLaw) Frequencies() []float64 {
	out := make([]float64, z.N)
	for r := 1; r <= z.N; r++ {
		out[r-1] = z.Freq(r)
	}
	return out
}

// FitPowerLaw finds a TruncatedPowerLaw over n ranks with clamp range
// [fmin, fmax] whose frequency sum equals targetSum (the desired mean
// transaction length), by bisecting on the exponent theta with the scale tied
// to the ceiling (C = fmax, so rank 1 sits at the ceiling). The FIMI
// benchmarks all have fmax near the ceiling and a long tail near fmin, which
// this one-parameter family captures.
func FitPowerLaw(n int, fmin, fmax, targetSum float64) TruncatedPowerLaw {
	if fmin < 0 || fmax <= 0 || fmin > fmax {
		panic("stats: FitPowerLaw invalid clamp range")
	}
	if targetSum < float64(n)*fmin {
		targetSum = float64(n) * fmin
	}
	if targetSum > float64(n)*fmax {
		targetSum = float64(n) * fmax
	}
	mk := func(theta float64) TruncatedPowerLaw {
		return TruncatedPowerLaw{N: n, Theta: theta, C: fmax, Min: fmin, Max: fmax}
	}
	// Sum is decreasing in theta: theta=0 gives n*fmax, theta->inf gives
	// roughly fmax + (n-1)*fmin.
	lo, hi := 0.0, 1.0
	for mk(hi).Sum() > targetSum && hi < 64 {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mk(mid).Sum() > targetSum {
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
