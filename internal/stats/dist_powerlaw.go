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

// Frequencies materializes the full frequency vector, rank order (descending).
func (z TruncatedPowerLaw) Frequencies() []float64 {
	out := make([]float64, z.N)
	for r := 1; r <= z.N; r++ {
		out[r-1] = z.Freq(r)
	}
	return out
}

// maxTheta caps the fitted exponent: the search for an upper bracket stops
// doubling there.
const maxTheta = 64

// powUlps is the error allowance K, in units of 2⁻⁵² relative, that
// FitPowerLaw grants one math.Pow(r, −θ) with θ ≤ maxTheta. Go's Pow takes
// the fractional part of θ as Exp(f·Log r) with |f·Log r| < 11 for r below
// 2³¹, under 16 units, and the integer part by at most seven squarings and
// products, under 40 units; 256 leaves room for a less careful Pow.
const powUlps = 256

// FitPowerLaw finds a TruncatedPowerLaw over n ranks with clamp range
// [fmin, fmax] whose frequency sum equals targetSum (the desired mean
// transaction length), by bisecting on the exponent theta with the scale tied
// to the ceiling (C = fmax, so rank 1 sits at the ceiling). The FIMI
// benchmarks all have fmax near the ceiling and a long tail near fmin, which
// this one-parameter family captures.
//
// Each bisection step asks whether the exact sum S_fp(θ), the left-to-right
// float64 sum of the ranks' Freq, exceeds the target. Most of those answers
// are certain without the sum. The sum in exact arithmetic, S(θ), is
// non-increasing in θ, and |S_fp − S| ≤ ρ·S + η for θ ≤ 64, where
// ρ = (n + K)·2⁻⁵²: summing n positive terms costs at most n/2 units of
// 2⁻⁵² relative, and a term's Pow and its product with fmax at most K + 1/2
// (K = powUlps); η = n·(K·fmax + 1)·2⁻¹⁰⁷⁴ covers terms that underflow.
// So once one exact sum shows S_fp(a) > target·(1 + 4ρ) + 4η, every θ ≤ a
// has S_fp(θ) ≥ (1 − ρ)·S(a) − η > target, and the answer is "exceeds"
// without summing; once S_fp(b) < target·(1 − 4ρ) − 4η, every θ ≥ b answers
// "does not". The cuts are placed at 5ρ and 5η; the fifth share absorbs
// their own rounding.
//
// A Newton iteration on an approximate sum (math.Exp of a logarithm
// precomputed per rank) guesses the root θ̂, and exact sums at θ̂ ± w, with
// w twice the cut margin over the approximate slope, seed a and b. The
// bisection then sums exactly only at the midpoints between a and b, and
// each such sum may move a or b in turn. A poor guess costs sums, never
// bits: every answer not certified is summed, so theta is bit for bit the
// plain bisection's, which sums 41 times on the benchmark profiles where
// this sums 3 to 8 times.
func FitPowerLaw(n int, fmin, fmax, targetSum float64) TruncatedPowerLaw {
	z, _ := fitPowerLaw(n, fmin, fmax, targetSum)
	return z
}

// fitPowerLaw is FitPowerLaw, also returning how many exact sums it took.
func fitPowerLaw(n int, fmin, fmax, targetSum float64) (TruncatedPowerLaw, int) {
	if fmin < 0 || fmax <= 0 || fmin > fmax {
		panic("stats: FitPowerLaw invalid clamp range")
	}
	if targetSum < float64(n)*fmin {
		targetSum = float64(n) * fmin
	}
	if targetSum > float64(n)*fmax {
		targetSum = float64(n) * fmax
	}
	z := TruncatedPowerLaw{N: n, C: fmax, Min: fmin, Max: fmax}

	rho := float64(n+powUlps) * 0x1p-52
	eta := float64(n) * (powUlps*fmax + 1) * 0x1p-1074
	margin := 5 * (rho*targetSum + eta)
	// Infinite cuts certify nothing (the strict comparisons below never
	// hold), the right answer to a margin that overflowed or is NaN.
	above, below := math.Inf(1), math.Inf(-1)
	if margin < math.Inf(1) {
		above, below = targetSum+margin, targetSum-margin
	}
	a, b := math.Inf(-1), math.Inf(1) // S_fp(a) > above, S_fp(b) < below
	sums := 0
	exceeds := func(theta float64) bool {
		if theta <= a {
			return true
		}
		if theta >= b {
			return false
		}
		z.Theta = theta
		total := 0.0
		for r := 1; r <= n; r++ {
			total += z.Freq(r)
		}
		sums++
		if total > above {
			a = theta
		}
		if total < below {
			b = theta
		}
		return total > targetSum
	}
	if guess, w, ok := rootGuess(n, fmin, fmax, targetSum, margin); ok {
		exceeds(math.Min(guess+w, maxTheta))
		exceeds(math.Max(guess-w, 0))
	}

	// Sum is decreasing in theta: theta=0 gives n*fmax, theta->inf gives
	// roughly fmax + (n-1)*fmin.
	lo, hi := 0.0, 1.0
	for hi < maxTheta && exceeds(hi) {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if exceeds(mid) {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12 {
			break
		}
	}
	z.Theta = (lo + hi) / 2
	return z, sums
}

// rootGuess estimates where the clamped power-law sum crosses target by
// Newton's method on ln S̃(θ) = ln target, where S̃ sums fmax·exp(−θ·ln r)
// clamped at fmin over logarithms computed once per rank. ln S is convex in
// θ (each clamped term is log-convex, and so is their sum), so from θ = 0
// the iterates rise to the root without passing it, up to the rounding of
// S̃. It returns the guess and the half-width w = 2·margin/|S̃′| of the
// certificates around it; ok is false when there is nothing to guess.
func rootGuess(n int, fmin, fmax, target, margin float64) (theta, w float64, ok bool) {
	if n < 2 || !(margin > 0 && margin < math.Inf(1)) {
		return 0, 0, false
	}
	logs := make([]float64, n)
	for i := range logs {
		logs[i] = math.Log(float64(i + 1))
	}
	for it := 0; it < 100; it++ {
		s, ds := 0.0, 0.0
		for i, l := range logs {
			t := fmax * math.Exp(-theta*l)
			if t <= fmin { // the terms fall with rank: the rest sit at the floor
				s += float64(n-i) * fmin
				break
			}
			s += t
			ds -= l * t
		}
		if ds == 0 { // every term past rank 1 is at the floor from here on
			if s > target {
				theta = maxTheta
			}
			break
		}
		w = 2 * margin / -ds
		next := theta + math.Log(s/target)*s/-ds
		if !(next > 0) {
			next = 0
		}
		if next > maxTheta {
			next = maxTheta
		}
		step := math.Abs(next - theta)
		theta = next
		if step < w/16 {
			break
		}
	}
	return theta, w, w > 0
}
