package stats

import "math"

// GeometricGap draws Geometric(p) gaps by inversion, gap(u) =
// floor(log(u) / log1p(-p)) for a uniform u in (0, 1). It is the one place
// the independence null model evaluates that expression. It holds the two
// per-p constants, so a caller drawing many gaps at one p — a column of
// the null model, every replicate of a job — computes them once.
//
// UniformBlock.AppendColumns places exactly the gaps the reference
// expression math.Floor(math.Log(u)/math.Log1p(-p)) gives, so a stream of
// gaps is the same whichever way it is computed; see certify for the
// certificate.
type GeometricGap struct {
	logq float64 // log1p(-p)
	inv  float64 // 1 / logq
}

// NewGeometricGap returns the gap constants for success probability p. A p
// in (0, 1) gives a negative inv; p <= 0 (NaN included) gives the zero
// GeometricGap, a column that never succeeds, and p >= 1 gives logq = -Inf
// with inv = 0, a column that always does. AppendColumns draws for neither.
func NewGeometricGap(p float64) GeometricGap {
	switch {
	case !(p > 0):
		return GeometricGap{}
	case p >= 1:
		return GeometricGap{logq: math.Inf(-1)}
	}
	logq := math.Log1p(-p)
	return GeometricGap{logq: logq, inv: 1 / logq}
}

// gapSlack is the certification margin of certify, relative and absolute:
// the fast estimate y is trusted to lie within gapSlack*(1+y) of the
// reference quotient. fastLog's relative error is below 1e-13 and the
// product with inv adds a few ulps, so the margin is >= 10^4 times the
// worst error, wide enough to absorb FMA contraction on any target.
const gapSlack = 1e-9

// AppendColumns is the independence null model's column walk. For each
// gaps[c] in turn it appends to dst, ascending, the positions in [0, t) of
// the successes of t independent Bernoulli trials at gaps[c]'s probability
// p, then sets ends[c] = len(dst); it returns dst. A column at p <= 0 is
// empty and one at p >= 1 full, neither drawing. Otherwise each success
// takes one uniform off b and the column's end one more. The gap before
// each success is the reference expression's for its uniform, certified
// from b's precomputed log; a column ends when the next gap would reach t.
// That test is made on the float quotient before any int conversion, so
// gaps beyond the int range (tiny p) end a column instead of wrapping.
//
// On amd64 CPUs with AVX2 the walkBlock kernel places four gaps per step,
// column after column, and stores them straight into dst's spare capacity.
// The Go walk below takes everything else, one uniform at a time: the last
// lanes of a block, the uniforms the kernel cannot certify, the appends
// that grow dst, columns at p outside (0, 1), and heights of 2^31 or more,
// whose positions do not fit the kernel's signed 32-bit lanes. Both emit the
// reference gaps, so a walk's positions and the uniforms it takes are the
// same whichever path places them.
func (b *UniformBlock) AppendColumns(dst []uint32, ends []int, t int, gaps []GeometricGap) []uint32 {
	ends = ends[:len(gaps)] // a short ends panics here, not in the kernel
	kernel := useWalkKernel && uint64(t) < 1<<31
	i, n, pos := b.i, b.n, -1
	for c := 0; c < len(gaps); {
		g := gaps[c]
		if !(g.inv < 0) { // p outside (0, 1)
			if g.logq < 0 {
				for tid := 0; tid < t; tid++ {
					dst = append(dst, uint32(tid))
				}
			}
			ends[c] = len(dst)
			c++
			continue
		}
		if kernel {
			if i == n {
				b.fill()
				i, n = 0, b.n
			}
			// The kernel takes at least one uniform unless lane i is one it
			// cannot certify, which the Go walk below then takes.
			if from := i; i <= n-4 && len(dst) <= cap(dst)-4 {
				var l int
				i, c, pos, l = walkBlock(&b.lg, i, n, dst, gaps, ends, c, pos, t)
				dst = dst[:l]
				if i != from {
					continue
				}
			}
		}
		// The Go walk: column c to its end, or with the kernel on, one
		// uniform before handing back to it.
		for {
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
				ends[c] = len(dst)
				c, pos = c+1, -1
				break
			}
			pos += gap + 1
			dst = append(dst, uint32(pos))
			if kernel {
				break
			}
		}
	}
	b.i = i
	return dst
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
