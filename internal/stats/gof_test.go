package stats_test

import (
	"math"
	"testing"

	"sigfim/internal/oracle"
	"sigfim/internal/stats"
)

// The chi-square and total-variation references of internal/oracle, and
// the goodness-of-fit tests of this package's samplers that use them. They
// live in the external test package because oracle imports stats.

func TestChiSquareUpperTailKnown(t *testing.T) {
	// ChiSq(1) at 3.841459 ~ 0.05; ChiSq(10) at 18.307 ~ 0.05.
	if got := oracle.ChiSquareUpperTail(3.841458820694124, 1); math.Abs(got-0.05) > 1e-6 {
		t.Errorf("chi2(1) 0.05 quantile tail = %v", got)
	}
	if got := oracle.ChiSquareUpperTail(18.307038053275146, 10); math.Abs(got-0.05) > 1e-6 {
		t.Errorf("chi2(10) 0.05 quantile tail = %v", got)
	}
	if got := oracle.ChiSquareUpperTail(0, 5); got != 1 {
		t.Errorf("chi2 tail at 0 = %v", got)
	}
}

func TestChiSquareTestNullUniform(t *testing.T) {
	// Under the null, p-values should be roughly uniform; check that a clean
	// match gives a high p-value and a gross mismatch a tiny one.
	obs := []float64{100, 100, 100, 100}
	exp := []float64{100, 100, 100, 100}
	if res := oracle.ChiSquareTest(obs, exp, 5, 0); res.PValue < 0.99 {
		t.Errorf("perfect fit p=%v", res.PValue)
	}
	bad := []float64{400, 0, 0, 0}
	if res := oracle.ChiSquareTest(bad, exp, 5, 0); res.PValue > 1e-10 {
		t.Errorf("gross mismatch p=%v", res.PValue)
	}
}

func TestChiSquarePooling(t *testing.T) {
	// Cells with tiny expectations must be pooled, shrinking the df.
	obs := []float64{50, 50, 0.5, 0.2, 0.3}
	exp := []float64{50, 50, 0.4, 0.3, 0.3}
	res := oracle.ChiSquareTest(obs, exp, 5, 0)
	if res.DF >= 4 {
		t.Errorf("pooling did not reduce df: %d", res.DF)
	}
}

func TestTotalVariationPoissonSelf(t *testing.T) {
	// A genuine Poisson sample should have small TV distance to its own law;
	// a shifted sample should not.
	r := stats.NewRNG(61)
	p := stats.Poisson{Lambda: 5}
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
	if tv := oracle.TotalVariationPoisson(sample, 5); tv > 0.03 {
		t.Errorf("TV of Poisson sample vs own law = %v", tv)
	}
	shifted := make([]int, len(sample))
	for i, v := range sample {
		shifted[i] = v + 5
	}
	if tv := oracle.TotalVariationPoisson(shifted, 5); tv < 0.3 {
		t.Errorf("TV of shifted sample suspiciously small: %v", tv)
	}
}

func TestGeometricPMFAndSampler(t *testing.T) {
	// Gaps drawn through GeometricGap must follow the Geometric(p) PMF
	// (1-p)^k p; the far tail is pooled into the last cell.
	const p, cells, trials = 0.25, 30, 50000
	g := stats.NewGeometricGap(p)
	r := stats.NewRNG(5)
	obs := make([]float64, cells+1)
	for i := 0; i < trials; i++ {
		gap, ok := stats.GapBelow(g, r.Float64Open(), cells)
		if !ok {
			gap = cells
		}
		obs[gap]++
	}
	exp := make([]float64, cells+1)
	for k := 0; k < cells; k++ {
		exp[k] = trials * math.Pow(1-p, float64(k)) * p
	}
	exp[cells] = trials * math.Pow(1-p, cells)
	if res := oracle.ChiSquareTest(obs, exp, 5, 0); res.PValue < 1e-4 {
		t.Errorf("geometric gaps fail chi-square: p=%v stat=%v df=%d", res.PValue, res.Statistic, res.DF)
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := stats.NewRNG(31337)
	const bins = 20
	const trials = 200000
	counts := make([]float64, bins)
	for i := 0; i < trials; i++ {
		counts[int(r.Float64()*bins)]++
	}
	expected := make([]float64, bins)
	for i := range expected {
		expected[i] = trials / bins
	}
	res := oracle.ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("uniformity chi-square p=%v", res.PValue)
	}
}

func TestIntnUnbiased(t *testing.T) {
	r := stats.NewRNG(2024)
	const n = 7
	const trials = 140000
	counts := make([]float64, n)
	for i := 0; i < trials; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	expected := make([]float64, n)
	for i := range expected {
		expected[i] = trials / n
	}
	res := oracle.ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("Intn chi-square p=%v", res.PValue)
	}
}

func TestSampleKOfNUniform(t *testing.T) {
	// Each element should appear with probability k/n.
	r := stats.NewRNG(23)
	const trials = 50000
	k, n := 3, 10
	counts := make([]float64, n)
	for i := 0; i < trials; i++ {
		for _, v := range stats.SampleKOfN(k, n, r) {
			counts[v]++
		}
	}
	expected := make([]float64, n)
	for i := range expected {
		expected[i] = trials * float64(k) / float64(n)
	}
	res := oracle.ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("Floyd sampling chi-square p=%v", res.PValue)
	}
}
