package stats

import "math"

// GeometricGap draws Geometric(p) gaps by inversion, gap(u) =
// floor(log(u) / log1p(-p)) for a uniform u in (0, 1). It is the one place
// the independence null model evaluates that expression. It holds the two
// per-p constants, so a caller drawing many gaps at one p — a column of
// the null model, every replicate of a job — computes them once.
//
// Below returns exactly the integer the reference expression
// math.Floor(math.Log(u)/math.Log1p(-p)) gives, so a stream of gaps is the
// same whichever way it is computed; see Below for the certificate.
type GeometricGap struct {
	logq float64 // log1p(-p)
	inv  float64 // 1 / logq
}

// NewGeometricGap returns the gap constants for success probability p in
// (0, 1). Callers handle p >= 1 (every gap is 0, no draw needed) and
// p <= 0 (no success ever) themselves.
func NewGeometricGap(p float64) GeometricGap {
	logq := math.Log1p(-p)
	return GeometricGap{logq: logq, inv: 1 / logq}
}

// gapSlack is the certification margin of Below, relative and absolute:
// the fast estimate y is trusted to lie within gapSlack*(1+y) of the
// reference quotient. fastLog's relative error is below 1e-13 and the
// product with inv adds a few ulps, so the margin is >= 10^4 times the
// worst error, wide enough to absorb FMA contraction on any target.
const gapSlack = 1e-9

// Below returns gap(u) and true when gap(u) < limit, and (0, false)
// otherwise. u must be a uniform from RNG.Float64Open (in (0, 1)) and limit
// must be >= 0. The comparison with limit is made on the float quotient
// before any int conversion, so gaps beyond the int range (tiny p) end a
// walk instead of wrapping.
//
// Fast path: y = fastLog(u) * inv, with [y-e, y+e], e = gapSlack*(1+y),
// bracketing the reference quotient math.Log(u)/logq. If the whole bracket
// is at or above limit, so is the reference gap. If the bracket holds no
// integer, floor(y) is the reference gap. Otherwise (about 2e-6 of draws
// at the null model's frequencies) the reference expression is evaluated.
func (g GeometricGap) Below(u float64, limit int) (int, bool) {
	y := fastLog(u) * g.inv
	// Written as products so y = +Inf (p subnormal) gives lo = +Inf, not NaN.
	lo := y*(1-gapSlack) - gapSlack
	if lo >= float64(limit) {
		return 0, false
	}
	fl := math.Floor(lo)
	if y*(1+gapSlack)+gapSlack < fl+1 {
		return int(fl), true
	}
	return g.reference(u, limit)
}

// reference is Below's exact fallback: the reference expression itself.
func (g GeometricGap) reference(u float64, limit int) (int, bool) {
	gap := math.Floor(math.Log(u) / g.logq)
	if gap >= float64(limit) {
		return 0, false
	}
	return int(gap), true
}
