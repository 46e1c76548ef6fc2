package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestLogFactorial(t *testing.T) {
	want := 0.0
	for n := 0; n <= 200; n++ {
		if n > 0 {
			want += math.Log(float64(n))
		}
		if got := LogFactorial(n); !almostEq(got, want, 1e-10) {
			t.Fatalf("LogFactorial(%d) = %v, want %v", n, got, want)
		}
	}
	// Beyond the cache boundary it must agree with Lgamma.
	for _, n := range []int{logFactCacheSize, logFactCacheSize + 1, 100000} {
		want, _ := math.Lgamma(float64(n) + 1)
		if got := LogFactorial(n); !almostEq(got, want, 1e-12) {
			t.Fatalf("LogFactorial(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{52, 5, math.Log(2598960)},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := LogChoose(c.n, c.k); !almostEq(got, c.want, 1e-10) {
			t.Errorf("LogChoose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogChoose(5, 6), -1) || !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("LogChoose outside support should be -Inf")
	}
}

func TestChoosePascalIdentity(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) for moderate n.
	for n := 2; n <= 60; n++ {
		for k := 1; k < n; k++ {
			lhs := math.Exp(LogChoose(n, k))
			rhs := math.Exp(LogChoose(n-1, k-1)) + math.Exp(LogChoose(n-1, k))
			if !almostEq(lhs, rhs, 1e-9) {
				t.Fatalf("Pascal identity fails at n=%d k=%d: %v vs %v", n, k, lhs, rhs)
			}
		}
	}
}

// Brute-force binomial tail for validation.
func bruteBinTail(n int, p float64, s int) float64 {
	sum := 0.0
	for k := s; k <= n; k++ {
		sum += math.Exp(LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	}
	return sum
}

func TestRegIncBetaAgainstBruteBinomial(t *testing.T) {
	cases := []struct {
		n int
		p float64
		s int
	}{
		{10, 0.3, 4}, {10, 0.3, 0}, {10, 0.3, 10},
		{100, 0.01, 3}, {100, 0.5, 50}, {100, 0.99, 95},
		{1000, 0.001, 5}, {37, 0.42, 20}, {5, 0.9, 5},
	}
	for _, c := range cases {
		want := bruteBinTail(c.n, c.p, c.s)
		got := Binomial{N: c.n, P: c.p}.UpperTail(c.s)
		if !almostEq(got, want, 1e-9) {
			t.Errorf("UpperTail(n=%d,p=%v,s=%d) = %v, want %v", c.n, c.p, c.s, got, want)
		}
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v, want 0", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v, want 1", got)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		l := RegIncBeta(3, 7, x)
		r := 1 - RegIncBeta(7, 3, 1-x)
		if !almostEq(l, r, 1e-12) {
			t.Errorf("beta symmetry fails at x=%v: %v vs %v", x, l, r)
		}
	}
}

func TestRegGammaComplement(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2, 5.5, 20, 100} {
		for _, x := range []float64{0.1, 1, 3, 10, 50, 150} {
			p := RegLowerGamma(a, x)
			q := RegUpperGamma(a, x)
			if !almostEq(p+q, 1, 1e-12) {
				t.Errorf("P+Q != 1 at a=%v x=%v: %v", a, x, p+q)
			}
			if p < 0 || p > 1 || q < 0 || q > 1 {
				t.Errorf("regularized gamma out of [0,1] at a=%v x=%v", a, x)
			}
		}
	}
}

func TestRegGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x)
		if got := RegLowerGamma(1, x); !almostEq(got, want, 1e-12) {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// Poisson identity: Pr(Pois(l) >= k) = P(k, l) checked against summation.
	for _, l := range []float64{0.5, 2, 10} {
		for _, k := range []int{1, 2, 5, 15} {
			want := 0.0
			pmf := math.Exp(-l)
			for i := 0; ; i++ {
				if i >= k {
					want += pmf
				}
				pmf *= l / float64(i+1)
				if i > k && pmf < 1e-18 {
					break
				}
			}
			got := Poisson{Lambda: l}.UpperTail(k)
			if !almostEq(got, want, 1e-9) {
				t.Errorf("Pois(%v) tail at %d = %v, want %v", l, k, got, want)
			}
		}
	}
}

func TestLogSumExp(t *testing.T) {
	cases := [][3]float64{
		{math.Log(2), math.Log(3), math.Log(5)},
		{-1000, -1000, -1000 + math.Ln2},
		{math.Inf(-1), math.Log(7), math.Log(7)},
	}
	for _, c := range cases {
		if got := LogSumExp(c[0], c[1]); !almostEq(got, c[2], 1e-12) {
			t.Errorf("LogSumExp(%v,%v) = %v, want %v", c[0], c[1], got, c[2])
		}
	}
}

func TestLogSumExpCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 700)
		b = math.Mod(b, 700)
		return almostEq(LogSumExp(a, b), LogSumExp(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
