package stats

import "math"

// GeometricGap draws Geometric(p) gaps by inversion, gap(u) =
// floor(log(u) / log1p(-p)) for a uniform u in (0, 1). It is the one place
// the independence null model evaluates that expression. It holds the two
// per-p constants, so a caller drawing many gaps at one p — a column of
// the null model, every replicate of a job — computes them once.
//
// AppendSuccesses returns exactly the gaps the reference expression
// math.Floor(math.Log(u)/math.Log1p(-p)) gives, so a stream of gaps is the
// same whichever way it is computed; see certify for the certificate.
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

// gapSlack is the certification margin of certify, relative and absolute:
// the fast estimate y is trusted to lie within gapSlack*(1+y) of the
// reference quotient. fastLog's relative error is below 1e-13 and the
// product with inv adds a few ulps, so the margin is >= 10^4 times the
// worst error, wide enough to absorb FMA contraction on any target.
const gapSlack = 1e-9

// AppendSuccesses appends to dst, ascending, the positions in [0, t) of the
// successes of t independent Bernoulli(p) trials, and returns it: the
// independence null model's column walk. Each success takes one uniform
// off b and the walk's end one more. The gap before each success is the
// reference expression's for its uniform, certified from b's precomputed
// log; the walk ends when the next gap would reach t. That test is made on
// the float quotient before any int conversion, so gaps beyond the int
// range (tiny p) end a walk instead of wrapping.
func (g GeometricGap) AppendSuccesses(dst []uint32, t int, b *UniformBlock) []uint32 {
	i, n := b.i, b.n
	for pos := -1; ; {
		if i == n {
			b.fill()
			i, n = 0, b.n
		}
		k := uint(i) % blockSize // i < n <= blockSize; the mask drops the bounds check
		i++
		limit := t - pos - 1
		gap, end, sure := g.certify(b.lg[k], limit)
		if !sure {
			var ok bool
			gap, ok = g.reference(b.u[k], limit)
			end = !ok
		}
		if end {
			b.i = i
			return dst
		}
		pos += gap + 1
		dst = append(dst, uint32(pos))
	}
}

// certify is the one certified gap test, for lg = fastLog(u) of a uniform
// u in (0, 1). It returns end when gap(u) >= limit, else the gap, and sure
// = false when the fast path cannot decide, in which case the caller
// evaluates reference(u, limit). Small enough to inline into the walk.
//
// Fast path: y = lg * inv, with [y-e, y+e], e = gapSlack*(1+y),
// bracketing the reference quotient math.Log(u)/logq. If the whole bracket
// is at or above limit, so is the reference gap. If the bracket holds no
// integer, floor(y) is the reference gap. Otherwise (about 2e-6 of draws
// at the null model's frequencies) it is not sure.
func (g GeometricGap) certify(lg float64, limit int) (gap int, end, sure bool) {
	y := lg * g.inv
	// Written as products so y = +Inf (p subnormal) gives lo = +Inf, not NaN.
	lo := y*(1-gapSlack) - gapSlack
	if lo >= float64(limit) {
		return 0, true, true
	}
	fl := math.Floor(lo)
	return int(fl), false, y*(1+gapSlack)+gapSlack < fl+1
}

// reference is the exact fallback: the reference expression itself. It
// returns gap(u) and true when gap(u) < limit, and (0, false) otherwise.
func (g GeometricGap) reference(u float64, limit int) (int, bool) {
	gap := math.Floor(math.Log(u) / g.logq)
	if gap >= float64(limit) {
		return 0, false
	}
	return int(gap), true
}
