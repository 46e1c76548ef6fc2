package stats

import (
	"math"
	"testing"
)

// referenceGap is the expression the certified gap must reproduce: the
// inversion every sampler of this package evaluated before the fast path.
// The float comparison with limit stands in for the int conversion, which
// wraps for gaps beyond the int range.
func referenceGap(u, p float64, limit int) (int, bool) {
	gap := math.Floor(math.Log(u) / math.Log1p(-p))
	if gap >= float64(limit) {
		return 0, false
	}
	return int(gap), true
}

// gapBelow takes one gap the way the column walk does: certify on u's
// table log, and the reference fallback when certify is not sure. It
// returns gap(u) and true when gap(u) < limit, and (0, false) otherwise.
func gapBelow(g GeometricGap, u float64, limit int) (int, bool) {
	gap, end, sure := g.certify(fastLog(u), limit)
	if !sure {
		return g.reference(u, limit)
	}
	return gap, !end
}

// checkGap compares gapBelow with the reference at u for limits around the
// reference gap, so both the gap and the walk-ending decision are pinned.
func checkGap(t *testing.T, u, p float64) {
	t.Helper()
	g := NewGeometricGap(p)
	want, wantOK := referenceGap(u, p, math.MaxInt)
	limits := []int{math.MaxInt, 0}
	if wantOK {
		limits = append(limits, want, want+1)
		if want > 0 {
			limits = append(limits, want-1)
		}
	}
	for _, limit := range limits {
		w, wOK := referenceGap(u, p, limit)
		got, ok := gapBelow(g, u, limit)
		if got != w || ok != wOK {
			t.Fatalf("gap(u=%v [%#x], p=%v, limit=%d) = (%d, %v), reference (%d, %v)",
				u, math.Float64bits(u), p, limit, got, ok, w, wOK)
		}
	}
}

// TestFastLogRelativeError bounds fastLog against math.Log on random
// uniforms and on both sides of every table-cell boundary in three binades,
// including the cell ending at 1.0 where log u vanishes. certify's margin
// (gapSlack = 1e-9) relies on this bound holding with room to spare.
func TestFastLogRelativeError(t *testing.T) {
	const bound = 1e-13
	worst := 0.0
	check := func(u float64) {
		want := math.Log(u)
		if rel := math.Abs(fastLog(u)-want) / math.Abs(want); rel > worst {
			worst = rel
			if rel > bound {
				t.Fatalf("fastLog(%v [%#x]) = %v, math.Log = %v: relative error %v > %v",
					u, math.Float64bits(u), fastLog(u), want, rel, bound)
			}
		}
	}
	r := NewRNG(11)
	for i := 0; i < 1_000_000; i++ {
		check(r.Float64Open())
	}
	for _, scale := range []float64{1, 0.5, 0x1p-40} {
		for i := 0; i <= 1<<logTabBits; i++ {
			b := math.Float64frombits(logTabOff+uint64(i)<<(52-logTabBits)) * scale
			for _, u := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, 2)} {
				for j := 0; j < 4 && u > 0 && u < 1; j++ {
					check(u)
					u = math.Nextafter(u, 0)
				}
			}
		}
	}
	for u := 1 - 0x1p-53; u > 1-0x1p-40; u = 1 - 2*(1-u) {
		check(u)
	}
	check(0x1p-53)
	check(0x1p-1022)
	t.Logf("worst relative error %.3g", worst)
}

// TestGeometricGapAdversarial feeds certify the uniforms where it is most
// likely to disagree with the reference: the Nextafter neighbours of
// q^g, the u at which the reference gap steps from g-1 to g, for many g and
// for p across [1e-6, 1-1e-9], plus the extreme uniforms 2^-53 and 1-2^-53.
func TestGeometricGapAdversarial(t *testing.T) {
	var ps []float64
	for e := -6.0; e < 0; e += 0.25 {
		ps = append(ps, math.Pow(10, e))
	}
	for e := -1.0; e >= -9; e -= 0.5 {
		ps = append(ps, 1-math.Pow(10, e))
	}
	for _, p := range ps {
		logq := math.Log1p(-p)
		for _, u := range []float64{0x1p-53, 1 - 0x1p-53, 0.5, 1 - 0x1p-9} {
			checkGap(t, u, p)
		}
		// Every g for small gaps, then geometrically spaced g up to where
		// q^g underflows the uniforms' range (u >= 2^-53).
		for g := 1.0; float64(g)*logq > math.Log(0x1p-53); {
			b := math.Exp(g * logq)
			lo, hi := b, b
			for j := 0; j < 6; j++ {
				checkGap(t, lo, p)
				checkGap(t, hi, p)
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			}
			if g < 64 {
				g++
			} else {
				g = math.Floor(g * 1.09)
			}
		}
	}
}

// TestGeometricGapMatchesReferenceOnDraws runs certify and the reference on
// the uniforms the samplers actually see, over the frequency range of the
// null models.
func TestGeometricGapMatchesReferenceOnDraws(t *testing.T) {
	r := NewRNG(12)
	for i := 0; i < 200_000; i++ {
		p := math.Pow(10, -6*r.Float64())
		checkGap(t, r.Float64Open(), p)
	}
}

// FuzzGeometricGap checks certify against the reference for arbitrary
// uniforms (uBits maps to a Float64Open value) and probabilities.
func FuzzGeometricGap(f *testing.F) {
	f.Add(uint64(1<<11), 1e-6)
	f.Add(^uint64(0), 0.5)
	f.Add(uint64(0x9e3779b97f4a7c15), 1e-19)
	f.Fuzz(func(t *testing.T, uBits uint64, p float64) {
		u := float64(uBits>>11) / (1 << 53)
		if u == 0 || !(p > 0 && p < 1) {
			return
		}
		checkGap(t, u, p)
	})
}

// TestTinyProbabilityGapsDoNotWrap pins the int-overflow fix: for p below
// ~4e-18 the reference quotient exceeds the int range, and a gap must end
// the walk rather than return a wrapped (negative or small) gap.
func TestTinyProbabilityGapsDoNotWrap(t *testing.T) {
	for _, p := range []float64{1e-19, 1e-300} {
		g := NewGeometricGap(p)
		r := NewRNG(13)
		for i := 0; i < 100; i++ {
			u := r.Float64Open()
			if gap, ok := gapBelow(g, u, 10); ok {
				t.Fatalf("p=%v u=%v: gap below 10 = %d, want the walk to end", p, u, gap)
			}
			if gap, ok := gapBelow(g, u, math.MaxInt); ok && gap < 1<<40 {
				t.Fatalf("p=%v u=%v: gap below MaxInt = %d, want a huge gap or none", p, u, gap)
			}
		}
	}
}
