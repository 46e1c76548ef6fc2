package stats

import "testing"

func TestChiSquareUpperTailKnown(t *testing.T) {
	// ChiSq(1) at 3.841459 ~ 0.05; ChiSq(10) at 18.307 ~ 0.05.
	if got := ChiSquareUpperTail(3.841458820694124, 1); !almostEq(got, 0.05, 1e-6) {
		t.Errorf("chi2(1) 0.05 quantile tail = %v", got)
	}
	if got := ChiSquareUpperTail(18.307038053275146, 10); !almostEq(got, 0.05, 1e-6) {
		t.Errorf("chi2(10) 0.05 quantile tail = %v", got)
	}
	if got := ChiSquareUpperTail(0, 5); got != 1 {
		t.Errorf("chi2 tail at 0 = %v", got)
	}
}

func TestChiSquareTestNullUniform(t *testing.T) {
	// Under the null, p-values should be roughly uniform; check that a clean
	// match gives a high p-value and a gross mismatch a tiny one.
	obs := []float64{100, 100, 100, 100}
	exp := []float64{100, 100, 100, 100}
	if res := ChiSquareTest(obs, exp, 5, 0); res.PValue < 0.99 {
		t.Errorf("perfect fit p=%v", res.PValue)
	}
	bad := []float64{400, 0, 0, 0}
	if res := ChiSquareTest(bad, exp, 5, 0); res.PValue > 1e-10 {
		t.Errorf("gross mismatch p=%v", res.PValue)
	}
}

func TestChiSquarePooling(t *testing.T) {
	// Cells with tiny expectations must be pooled, shrinking the df.
	obs := []float64{50, 50, 0.5, 0.2, 0.3}
	exp := []float64{50, 50, 0.4, 0.3, 0.3}
	res := ChiSquareTest(obs, exp, 5, 0)
	if res.DF >= 4 {
		t.Errorf("pooling did not reduce df: %d", res.DF)
	}
}

func TestTotalVariationPoissonSelf(t *testing.T) {
	// A genuine Poisson sample should have small TV distance to its own law;
	// a shifted sample should not.
	r := NewRNG(61)
	p := Poisson{Lambda: 5}
	sample := make([]int, 20000)
	for i := range sample {
		// Inversion: the smallest k whose CDF reaches a uniform draw.
		u, k, cdf := r.Float64(), 0, p.PMF(0)
		for u >= cdf {
			k++
			cdf += p.PMF(k)
		}
		sample[i] = k
	}
	if tv := TotalVariationPoisson(sample, 5); tv > 0.03 {
		t.Errorf("TV of Poisson sample vs own law = %v", tv)
	}
	shifted := make([]int, len(sample))
	for i, v := range sample {
		shifted[i] = v + 5
	}
	if tv := TotalVariationPoisson(shifted, 5); tv < 0.3 {
		t.Errorf("TV of shifted sample suspiciously small: %v", tv)
	}
}
