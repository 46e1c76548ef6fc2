package oracle

import (
	"math"
	"testing"

	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

func almostEq(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestJointTailAgainstMonteCarlo(t *testing.T) {
	// Exact DP vs simulation for a pair of overlapping itemsets.
	fx, fy := 0.3, 0.25
	fu := 0.1 // Pr(transaction contains X union Y)
	tt, s := 40, 4
	exact := JointTail(tt, fx, fy, fu, s)
	r := stats.NewRNG(42)
	const reps = 200000
	hit := 0
	for i := 0; i < reps; i++ {
		sx, sy := 0, 0
		for j := 0; j < tt; j++ {
			u := r.Float64()
			switch {
			case u < fu:
				sx++
				sy++
			case u < fx:
				sx++
			case u < fx+fy-fu:
				sy++
			}
		}
		if sx >= s && sy >= s {
			hit++
		}
	}
	emp := float64(hit) / reps
	se := math.Sqrt(exact * (1 - exact) / reps)
	if math.Abs(emp-exact) > 6*se+1e-4 {
		t.Errorf("JointTail = %v, Monte Carlo = %v", exact, emp)
	}
}

func TestJointTailMarginalConsistency(t *testing.T) {
	// With fU = fX*fY the supports are NOT independent in general, but when
	// Y's support is certain (fY=1, s<=t scaled), the joint tail reduces to
	// the marginal.
	tt, s := 30, 3
	fx := 0.2
	got := JointTail(tt, fx, 1.0, fx, s)
	want := stats.Binomial{N: tt, P: fx}.UpperTail(s)
	if !almostEq(got, want, 1e-9) {
		t.Errorf("degenerate joint = %v, want %v", got, want)
	}
	if got := JointTail(10, 0.5, 0.5, 0.25, 0); got != 1 {
		t.Errorf("s=0 should give 1, got %v", got)
	}
}

func TestExactLambdaSmall(t *testing.T) {
	// 3 items, k=2: direct sum over the 3 pairs.
	freqs := []float64{0.5, 0.4, 0.3}
	tt, s := 20, 3
	want := 0.0
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		p := freqs[pair[0]] * freqs[pair[1]]
		want += stats.Binomial{N: tt, P: p}.UpperTail(s)
	}
	if got := ExactLambda(freqs, tt, 2, s); !almostEq(got, want, 1e-12) {
		t.Errorf("ExactLambda = %v, want %v", got, want)
	}
	if got := ExactLambda(freqs, tt, 4, s); got != 0 {
		t.Errorf("k > n should give 0, got %v", got)
	}
}

func TestExactLambdaAgainstSimulation(t *testing.T) {
	freqs := []float64{0.4, 0.35, 0.3, 0.25, 0.2}
	tt, k, s := 50, 2, 6
	want := ExactLambda(freqs, tt, k, s)
	m := randmodel.IndependentModel{T: tt, Freqs: freqs}
	r := stats.NewRNG(7)
	const reps = 20000
	total := 0.0
	for i := 0; i < reps; i++ {
		v := m.Generate(r.Split())
		// count pairs with support >= s by brute force
		for a := 0; a < len(freqs); a++ {
			for b := a + 1; b < len(freqs); b++ {
				if v.Support([]uint32{uint32(a), uint32(b)}) >= s {
					total++
				}
			}
		}
	}
	emp := total / reps
	se := math.Sqrt(want / reps) // Poisson-ish variance
	if math.Abs(emp-want) > 8*se+0.01 {
		t.Errorf("lambda: exact %v vs simulated %v", want, emp)
	}
}

func TestBucketedLambdaMatchesExact(t *testing.T) {
	// With ratio close to 1 the bucketed value converges to the exact one.
	r := stats.NewRNG(3)
	freqs := make([]float64, 30)
	for i := range freqs {
		freqs[i] = 0.05 + 0.3*r.Float64()
	}
	tt, k, s := 60, 2, 8
	exact := ExactLambda(freqs, tt, k, s)
	b := NewBuckets(freqs, 1.01)
	got := BucketedLambda(b, tt, k, s)
	if !almostEq(got, exact, 0.05) {
		t.Errorf("BucketedLambda = %v, exact %v", got, exact)
	}
	// Coarser buckets stay within a loose factor.
	coarse := BucketedLambda(NewBuckets(freqs, 1.5), tt, k, s)
	if coarse <= 0 || coarse > exact*10 || coarse < exact/10 {
		t.Errorf("coarse BucketedLambda = %v vs exact %v", coarse, exact)
	}
}

func TestBucketsDropZeroFreqs(t *testing.T) {
	b := NewBuckets([]float64{0, 0.5, 0, 0.25}, 1.1)
	total := 0
	for _, c := range b.Count {
		total += c
	}
	if total != 2 {
		t.Errorf("buckets contain %d items, want 2", total)
	}
	empty := NewBuckets([]float64{0, 0}, 1.1)
	if len(empty.Count) != 0 {
		t.Error("all-zero frequencies should give no buckets")
	}
}

func TestBucketedB1MatchesExactPairs(t *testing.T) {
	freqs := []float64{0.3, 0.28, 0.26, 0.24, 0.22, 0.2}
	tt, k, s := 40, 2, 5
	wantB1, _ := ExactPairBounds(freqs, tt, k, s)
	got := BucketedB1(NewBuckets(freqs, 1.001), tt, k, s)
	if !almostEq(got, wantB1, 0.05) {
		t.Errorf("BucketedB1 = %v, exact %v", got, wantB1)
	}
}

func TestUniformBoundsAgainstExact(t *testing.T) {
	// In the uniform regime, UniformBounds.B1 must equal the enumerated b1
	// exactly, and UniformBounds.B2 must upper bound the enumerated b2.
	n, k, tt, p := 7, 2, 25, 0.3
	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = p
	}
	u := UniformBounds{N: n, K: k, T: tt, P: p}
	for _, s := range []int{2, 3, 5, 8} {
		exactB1, exactB2 := ExactPairBounds(freqs, tt, k, s)
		if got := u.B1(s); !almostEq(got, exactB1, 1e-6) {
			t.Errorf("s=%d: B1 = %v, exact %v", s, got, exactB1)
		}
		if got := u.B2(s); got < exactB2*(1-1e-9) {
			t.Errorf("s=%d: B2 bound %v below exact %v", s, got, exactB2)
		}
	}
}

func TestUniformBoundsDecreasingInS(t *testing.T) {
	u := UniformBounds{N: 50, K: 3, T: 200, P: 0.1}
	prev := math.Inf(1)
	for s := 1; s <= 12; s++ {
		cur := u.Sum(s)
		if cur > prev*(1+1e-9) {
			t.Fatalf("bound increased at s=%d: %v -> %v", s, prev, cur)
		}
		prev = cur
	}
}

func TestUniformSMin(t *testing.T) {
	u := UniformBounds{N: 100, K: 2, T: 1000, P: 0.05}
	s, ok := u.SMin(0.01, 1)
	if !ok {
		t.Fatal("no s_min found")
	}
	if u.Sum(s) > 0.01 {
		t.Errorf("Sum(s_min)=%v exceeds eps", u.Sum(s))
	}
	if s > 1 && u.Sum(s-1) <= 0.01 {
		t.Errorf("s_min %d not minimal", s)
	}
	// Lambda at s_min should be modest (rare-events regime).
	if lam := u.Lambda(s); lam > 10 {
		t.Errorf("lambda at s_min suspiciously large: %v", lam)
	}
}

func TestMixtureBoundsDominateUniform(t *testing.T) {
	// With R a point mass, the mixture bounds (which take Jensen slack in
	// b1) must still upper-bound the exact uniform quantities.
	n, k, tt, p := 8, 2, 30, 0.2
	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = p
	}
	pr := PointR{P: p}
	m := MixtureBounds{N: n, K: k, T: tt, Moments: pr.Moment}
	for _, s := range []int{2, 4, 6} {
		exactB1, exactB2 := ExactPairBounds(freqs, tt, k, s)
		if got := m.B1(s); got < exactB1*(1-1e-9) {
			t.Errorf("s=%d: mixture B1 bound %v below exact %v", s, got, exactB1)
		}
		if got := m.B2(s); got < exactB2*(1-1e-9) {
			t.Errorf("s=%d: mixture B2 bound %v below exact %v", s, got, exactB2)
		}
	}
}

func TestMixtureSMinFindsThreshold(t *testing.T) {
	pr := TwoPointR{Lo: 0.01, Hi: 0.2, W: 0.1}
	m := MixtureBounds{N: 200, K: 2, T: 500, Moments: pr.Moment}
	s, ok := m.SMin(0.01, 1)
	if !ok {
		t.Fatal("no mixture s_min")
	}
	if m.Sum(s) > 0.01 || (s > 1 && m.Sum(s-1) <= 0.01) {
		t.Errorf("mixture s_min %d wrong: sum=%v prev=%v", s, m.Sum(s), m.Sum(s-1))
	}
}

func TestSMinExactSmallUniverse(t *testing.T) {
	freqs := []float64{0.5, 0.45, 0.4, 0.35}
	tt := 60
	s, ok := SMinExact(freqs, tt, 2, 0.01)
	if !ok {
		t.Fatal("no exact s_min")
	}
	if VariationDistanceBound(freqs, tt, 2, s) > 0.01 {
		t.Error("bound at s_min exceeds eps")
	}
	if s > 1 && VariationDistanceBound(freqs, tt, 2, s-1) <= 0.01 {
		t.Error("exact s_min not minimal")
	}
}
