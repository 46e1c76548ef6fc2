package stats

import (
	"math"
	"testing"
)

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, c := range []Binomial{{10, 0.3}, {50, 0.05}, {7, 0.9}, {1, 0.5}, {100, 0.001}} {
		sum := 0.0
		for k := 0; k <= c.N; k++ {
			sum += c.PMF(k)
		}
		if !almostEq(sum, 1, 1e-10) {
			t.Errorf("Binomial%v PMF sums to %v", c, sum)
		}
	}
}

func TestBinomialCDFTailComplement(t *testing.T) {
	b := Binomial{N: 40, P: 0.17}
	for s := 0; s <= 41; s++ {
		lhs := b.CDF(s-1) + b.UpperTail(s)
		if !almostEq(lhs, 1, 1e-10) {
			t.Errorf("CDF(%d)+Tail(%d) = %v", s-1, s, lhs)
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	b0 := Binomial{N: 10, P: 0}
	if b0.PMF(0) != 1 || b0.UpperTail(1) != 0 || b0.CDF(0) != 1 {
		t.Error("Binomial p=0 should be point mass at 0")
	}
	b1 := Binomial{N: 10, P: 1}
	if b1.PMF(10) != 1 || b1.UpperTail(10) != 1 || b1.CDF(9) != 0 {
		t.Error("Binomial p=1 should be point mass at N")
	}
}

func TestBinomialQuantileInverse(t *testing.T) {
	b := Binomial{N: 30, P: 0.4}
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		k := b.Quantile(q)
		if b.CDF(k) < q {
			t.Errorf("CDF(Quantile(%v)) = %v < q", q, b.CDF(k))
		}
		if k > 0 && b.CDF(k-1) >= q {
			t.Errorf("Quantile(%v) = %d is not minimal", q, k)
		}
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lam := range []float64{0.1, 1, 5, 30, 200} {
		p := Poisson{Lambda: lam}
		sum := 0.0
		limit := int(lam + 20*math.Sqrt(lam+1) + 20)
		for k := 0; k <= limit; k++ {
			sum += p.PMF(k)
		}
		if !almostEq(sum, 1, 1e-9) {
			t.Errorf("Poisson(%v) PMF sums to %v", lam, sum)
		}
	}
}

func TestPoissonCDFTailComplement(t *testing.T) {
	// The CDF below s, summed from the PMF, plus the exact upper tail at s
	// must be 1.
	p := Poisson{Lambda: 7.3}
	cdf := 0.0
	for s := 0; s <= 40; s++ {
		lhs := cdf + p.UpperTail(s)
		if !almostEq(lhs, 1, 1e-10) {
			t.Errorf("CDF(%d)+Tail(%d) = %v", s-1, s, lhs)
		}
		cdf += p.PMF(s)
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	p := Poisson{Lambda: 0}
	if p.PMF(0) != 1 || p.UpperTail(0) != 1 || p.UpperTail(1) != 0 {
		t.Error("Poisson(0) should be point mass at 0")
	}
}

func TestTruncatedPowerLawFit(t *testing.T) {
	n, fmin, fmax, target := 1000, 1e-4, 0.5, 8.0
	z := FitPowerLaw(n, fmin, fmax, target)
	if got := z.Sum(); math.Abs(got-target) > 0.05*target {
		t.Errorf("fitted sum %v, want %v", got, target)
	}
	fs := z.Frequencies()
	for i, f := range fs {
		if f < fmin-1e-15 || f > fmax+1e-15 {
			t.Fatalf("frequency %v at rank %d outside clamp", f, i+1)
		}
		if i > 0 && f > fs[i-1]+1e-15 {
			t.Fatalf("frequencies not non-increasing at rank %d", i+1)
		}
	}
}

func TestHypergeometricPMFSumsToOne(t *testing.T) {
	cases := []Hypergeometric{
		{N: 20, K: 7, Draws: 5},
		{N: 50, K: 25, Draws: 10},
		{N: 10, K: 10, Draws: 3},
		{N: 10, K: 0, Draws: 3},
		{N: 8, K: 5, Draws: 7}, // lo > 0
	}
	for _, h := range cases {
		sum := 0.0
		for x := 0; x <= h.Draws; x++ {
			sum += h.PMF(x)
		}
		if !almostEq(sum, 1, 1e-10) {
			t.Errorf("Hypergeometric%+v PMF sums to %v", h, sum)
		}
	}
}

func TestHypergeometricTailComplement(t *testing.T) {
	// The CDF below x, summed from the PMF, plus the upper tail at x must
	// be 1.
	h := Hypergeometric{N: 30, K: 12, Draws: 9}
	cdf := 0.0
	for x := 0; x <= 10; x++ {
		lhs := cdf + h.UpperTail(x)
		if !almostEq(lhs, 1, 1e-10) {
			t.Errorf("CDF(%d)+Tail(%d) = %v", x-1, x, lhs)
		}
		cdf += h.PMF(x)
	}
}

func TestHypergeometricKnownValue(t *testing.T) {
	// Pr(X = 2) for N=10, K=4, draws=3: C(4,2)C(6,1)/C(10,3) = 36/120 = 0.3.
	h := Hypergeometric{N: 10, K: 4, Draws: 3}
	if got := h.PMF(2); !almostEq(got, 0.3, 1e-12) {
		t.Errorf("PMF(2) = %v, want 0.3", got)
	}
	mean := 0.0
	for x := 0; x <= h.Draws; x++ {
		mean += float64(x) * h.PMF(x)
	}
	if !almostEq(mean, 1.2, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
}

func TestFisherExactAgainstBinomialLimit(t *testing.T) {
	// For t >> draws the hypergeometric approaches Binomial(suppB, suppA/t).
	t_, suppA, suppB, joint := 100000, 500, 200, 5
	fisher := FisherExactUpper(t_, suppA, suppB, joint)
	binom := Binomial{N: suppB, P: float64(suppA) / float64(t_)}.UpperTail(joint)
	if math.Abs(fisher-binom) > 0.05*binom {
		t.Errorf("Fisher %v vs Binomial limit %v", fisher, binom)
	}
	if FisherExactUpper(100, 50, 50, 0) != 1 {
		t.Error("tail at support lower bound should be 1")
	}
}
