package stats

import "testing"

func TestRNGDeterministicBySeed(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(12346)
	same := 0
	a2 := NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	// Must not be stuck at zero.
	allZero := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(77)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(31337)
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
	res := ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("uniformity chi-square p=%v", res.PValue)
	}
}

func TestIntnUnbiased(t *testing.T) {
	r := NewRNG(2024)
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
	res := ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("Intn chi-square p=%v", res.PValue)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(9)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split children collide %d times", same)
	}
}

func TestSampleKOfN(t *testing.T) {
	r := NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		k, n := 5, 20
		s := SampleKOfN(k, n, r)
		if len(s) != k {
			t.Fatalf("wrong size %d", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("invalid sample %v", s)
			}
			seen[v] = true
		}
	}
	// k = n must return everything.
	s := SampleKOfN(10, 10, r)
	if len(s) != 10 {
		t.Fatal("k=n sample wrong size")
	}
}

func TestSampleKOfNUniform(t *testing.T) {
	// Each element should appear with probability k/n.
	r := NewRNG(23)
	const trials = 50000
	k, n := 3, 10
	counts := make([]float64, n)
	for i := 0; i < trials; i++ {
		for _, v := range SampleKOfN(k, n, r) {
			counts[v]++
		}
	}
	expected := make([]float64, n)
	for i := range expected {
		expected[i] = trials * float64(k) / float64(n)
	}
	res := ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("Floyd sampling chi-square p=%v", res.PValue)
	}
}
