package mht_test

import (
	"math"
	"sort"
	"testing"

	"sigfim/internal/mht"
	"sigfim/internal/oracle"
	"sigfim/internal/stats"
)

func TestBonferroni(t *testing.T) {
	p := []float64{0.001, 0.02, 0.04, 0.9}
	got := oracle.Bonferroni(p, 0.05, 0)
	want := []bool{true, false, false, false} // threshold 0.0125
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bonferroni = %v, want %v", got, want)
		}
	}
	// Explicit larger m tightens the threshold.
	got = oracle.Bonferroni(p, 0.05, 100)
	if got[0] != false {
		t.Error("m=100 should reject nothing at p=0.001? threshold 5e-4")
	}
}

func TestHolmDominatesBonferroni(t *testing.T) {
	r := stats.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(20)
		p := make([]float64, n)
		for i := range p {
			p[i] = r.Float64()
			if r.Bernoulli(0.3) {
				p[i] *= 1e-4 // sprinkle signals
			}
		}
		bon := oracle.Bonferroni(p, 0.05, 0)
		holm := oracle.Holm(p, 0.05)
		for i := range p {
			if bon[i] && !holm[i] {
				t.Fatalf("Holm rejected less than Bonferroni at %v", p)
			}
		}
	}
}

func TestBHKnownExample(t *testing.T) {
	// Worked example: m=10, q=0.05; thresholds 0.005*i. Largest i with
	// p_(i) <= 0.005i is i=2 (0.008 <= 0.010); i>=3 all fail.
	p := []float64{0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205, 0.212, 0.216}
	got := oracle.BenjaminiHochberg(p, 0.05)
	wantRejected := 2
	count := 0
	for _, b := range got {
		if b {
			count++
		}
	}
	if count != wantRejected {
		t.Fatalf("BH rejected %d, want %d", count, wantRejected)
	}
	for i := 0; i < wantRejected; i++ {
		if !got[i] {
			t.Fatalf("BH should reject the %d smallest: %v", wantRejected, got)
		}
	}
}

func TestBYMoreConservativeThanBH(t *testing.T) {
	r := stats.NewRNG(6)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(30)
		p := make([]float64, n)
		for i := range p {
			p[i] = r.Float64()
			if r.Bernoulli(0.3) {
				p[i] *= 1e-5
			}
		}
		bh := oracle.BenjaminiHochberg(p, 0.05)
		by := oracle.BenjaminiYekutieli(p, 0.05, 0)
		for i := range p {
			if by[i] && !bh[i] {
				t.Fatalf("BY rejected more than BH")
			}
		}
	}
}

func TestBYExplicitM(t *testing.T) {
	// With a huge external m, only extremely small p-values survive.
	p := []float64{1e-20, 1e-3, 0.01}
	m := 1e15
	got := oracle.BenjaminiYekutieli(p, 0.05, m)
	if !got[0] || got[1] || got[2] {
		t.Fatalf("BY with m=1e15: %v", got)
	}
	if ell := mht.BYPrefix(p, 0.05, m); ell != 1 {
		t.Fatalf("BYPrefix with m=1e15 = %d, want 1", ell)
	}
}

func TestStepUpRejectsPrefixOfSorted(t *testing.T) {
	// Any step-up output must be a prefix of the sorted p-values: if p_i is
	// rejected then every p_j <= p_i is rejected too.
	r := stats.NewRNG(7)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(40)
		p := make([]float64, n)
		for i := range p {
			p[i] = r.Float64()
		}
		for _, mask := range [][]bool{
			oracle.BenjaminiHochberg(p, 0.2),
			oracle.BenjaminiYekutieli(p, 0.2, 0),
		} {
			for i := range p {
				if !mask[i] {
					continue
				}
				for j := range p {
					if p[j] <= p[i] && !mask[j] {
						t.Fatalf("rejection set not downward closed")
					}
				}
			}
		}
	}
}

func TestBHControlsFDRSimulation(t *testing.T) {
	// 60% true nulls with Uniform p-values, 40% alternatives with tiny
	// p-values; the average empirical FDR over trials must be <= q (with
	// slack for noise).
	r := stats.NewRNG(8)
	const trials = 2000
	const n = 50
	q := 0.1
	sumFDR := 0.0
	for trial := 0; trial < trials; trial++ {
		p := make([]float64, n)
		isNull := make([]bool, n)
		for i := range p {
			if i < 30 {
				isNull[i] = true
				p[i] = r.Float64()
			} else {
				p[i] = r.Float64() * 1e-4
			}
		}
		sumFDR += oracle.EmpiricalFDR(oracle.BenjaminiHochberg(p, q), isNull)
	}
	avg := sumFDR / trials
	if avg > q*1.15 {
		t.Errorf("BH empirical FDR %v exceeds q=%v", avg, q)
	}
}

func TestBYControlsFDRSimulation(t *testing.T) {
	r := stats.NewRNG(9)
	const trials = 2000
	const n = 50
	beta := 0.1
	sumFDR := 0.0
	for trial := 0; trial < trials; trial++ {
		p := make([]float64, n)
		isNull := make([]bool, n)
		for i := range p {
			if i < 30 {
				isNull[i] = true
				p[i] = r.Float64()
			} else {
				p[i] = r.Float64() * 1e-4
			}
		}
		sumFDR += oracle.EmpiricalFDR(oracle.BenjaminiYekutieli(p, beta, 0), isNull)
	}
	avg := sumFDR / trials
	if avg > beta*1.15 {
		t.Errorf("BY empirical FDR %v exceeds beta=%v", avg, beta)
	}
}

func TestEmpiricalFDRAndPower(t *testing.T) {
	reject := []bool{true, true, false, false}
	isNull := []bool{true, false, false, true}
	if got := oracle.EmpiricalFDR(reject, isNull); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FDR = %v", got)
	}
	if got := oracle.Power(reject, isNull); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Power = %v", got)
	}
	if oracle.EmpiricalFDR([]bool{false}, []bool{true}) != 0 {
		t.Error("no rejections should give FDR 0")
	}
	if oracle.Power([]bool{false}, []bool{true}) != 0 {
		t.Error("no alternatives should give power 0")
	}
}

func TestBonferroniAdjust(t *testing.T) {
	p := []float64{0.001, 0.02, 0.5}
	adj := mht.BonferroniAdjust(p, 0) // m = 3
	want := []float64{0.003, 0.06, 1}
	for i := range want {
		if math.Abs(adj[i]-want[i]) > 1e-12 {
			t.Fatalf("BonferroniAdjust = %v, want %v", adj, want)
		}
	}
	// Explicit m scales the adjustment; rejection must match the mask form.
	adj = mht.BonferroniAdjust(p, 100)
	mask := oracle.Bonferroni(p, 0.05, 100)
	for i := range p {
		if (adj[i] <= 0.05) != mask[i] {
			t.Fatalf("BonferroniAdjust disagrees with Bonferroni at %d: adj=%v mask=%v", i, adj, mask)
		}
	}
}

func TestHolmAdjustMatchesHolmMask(t *testing.T) {
	// With mTotal = len(p), rejecting adjusted <= alpha must reproduce the
	// Holm mask exactly, across random inputs and levels.
	r := stats.NewRNG(11)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(25)
		p := make([]float64, n)
		for i := range p {
			p[i] = r.Float64()
			if r.Bernoulli(0.4) {
				p[i] *= 1e-4
			}
		}
		alpha := 0.01 + r.Float64()*0.2
		adj := mht.HolmAdjust(p, 0)
		mask := oracle.Holm(p, alpha)
		for i := range p {
			if (adj[i] <= alpha) != mask[i] {
				t.Fatalf("HolmAdjust(<=%v) disagrees with Holm at %v", alpha, p)
			}
		}
	}
}

func TestHolmAdjustSmallMTotal(t *testing.T) {
	// mTotal smaller than len(pvalues): the (m - i + 1) multiplier would go
	// nonpositive for the tail order statistics and must clamp to 1, so the
	// adjusted value never drops below the raw p-value.
	p := []float64{0.5, 0.01, 0.2, 0.9, 0.03}
	adj := mht.HolmAdjust(p, 2)
	for i := range p {
		if adj[i] < p[i] {
			t.Fatalf("adjusted %v below raw %v at %d", adj[i], p[i], i)
		}
		if adj[i] > 1 {
			t.Fatalf("adjusted %v above 1", adj[i])
		}
	}
}

func TestWestfallYoungKnownCounts(t *testing.T) {
	// Hand-checked: Delta = 4 null minima {0.01, 0.05, 0.2, 0.8}.
	// p=0.005 -> count 0 -> 1/5; p=0.05 -> count 2 -> 3/5 (ties at the
	// observed value count, <=); p=0.9 -> count 4 -> 5/5.
	nullMin := []float64{0.2, 0.01, 0.8, 0.05}
	p := []float64{0.9, 0.005, 0.05}
	adj := mht.WestfallYoung(p, nullMin)
	want := []float64{1.0, 0.2, 0.6}
	for i := range want {
		if math.Abs(adj[i]-want[i]) > 1e-12 {
			t.Fatalf("WestfallYoung = %v, want %v", adj, want)
		}
	}
}

func TestWestfallYoungStepDownMonotone(t *testing.T) {
	// The adjusted p-values must be monotone in the raw p-values: a smaller
	// raw p never gets a larger adjustment. This is the step-down coherence
	// the running maximum enforces.
	r := stats.NewRNG(12)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(30)
		delta := r.Intn(50)
		p := make([]float64, n)
		for i := range p {
			p[i] = r.Float64()
		}
		nullMin := make([]float64, delta)
		for i := range nullMin {
			nullMin[i] = r.Float64()
		}
		for _, adj := range [][]float64{
			mht.WestfallYoung(p, nullMin),
			mht.HolmAdjust(p, 0),
			mht.BonferroniAdjust(p, 0),
		} {
			for i := range p {
				if adj[i] < 0 || adj[i] > 1 {
					t.Fatalf("adjusted p %v out of [0,1]", adj[i])
				}
				for j := range p {
					if p[i] < p[j] && adj[i] > adj[j] {
						t.Fatalf("monotonicity violated: p %v < %v but adj %v > %v",
							p[i], p[j], adj[i], adj[j])
					}
				}
			}
		}
	}
}

func TestWestfallYoungAllTies(t *testing.T) {
	// Every observed p-value identical: all share one count, hence one
	// adjusted value, and RejectAdjusted is all-or-nothing.
	p := []float64{0.03, 0.03, 0.03, 0.03}
	nullMin := []float64{0.01, 0.02, 0.5, 0.5, 0.9}
	adj := mht.WestfallYoung(p, nullMin)
	for i := 1; i < len(adj); i++ {
		if adj[i] != adj[0] {
			t.Fatalf("tied p-values adjusted differently: %v", adj)
		}
	}
	// count{<=0.03} = 2 -> (1+2)/(5+1) = 0.5.
	if math.Abs(adj[0]-0.5) > 1e-12 {
		t.Fatalf("tied adjustment = %v, want 0.5", adj[0])
	}
	mask := oracle.RejectAdjusted(adj, 0.5)
	for _, b := range mask {
		if !b {
			t.Fatalf("RejectAdjusted at the exact level should reject: %v", mask)
		}
	}
}

func TestWestfallYoungEmptyInputs(t *testing.T) {
	// Empty p-value slice: empty output, any null distribution.
	if got := mht.WestfallYoung(nil, []float64{0.1, 0.2}); len(got) != 0 {
		t.Fatalf("WestfallYoung(nil, ...) = %v", got)
	}
	// Empty null distribution: everything adjusts to exactly 1.
	adj := mht.WestfallYoung([]float64{0.0001, 0.5}, nil)
	for _, a := range adj {
		if a != 1 {
			t.Fatalf("empty null distribution should adjust to 1, got %v", adj)
		}
	}
	if got := oracle.RejectAdjusted(nil, 0.05); len(got) != 0 {
		t.Fatalf("RejectAdjusted(nil) = %v", got)
	}
	if got := mht.HolmAdjust(nil, 0); len(got) != 0 {
		t.Fatalf("HolmAdjust(nil) = %v", got)
	}
	if got := mht.BonferroniAdjust(nil, 0); len(got) != 0 {
		t.Fatalf("BonferroniAdjust(nil) = %v", got)
	}
}

func TestWestfallYoungNeverZeroAndValid(t *testing.T) {
	// The +1 smoothing keeps every adjusted p-value strictly positive and at
	// least 1/(Delta+1), even for a p-value below every null minimum.
	nullMin := []float64{0.3, 0.4, 0.5}
	adj := mht.WestfallYoung([]float64{0}, nullMin)
	if adj[0] != 0.25 {
		t.Fatalf("floor adjustment = %v, want 1/(Delta+1) = 0.25", adj[0])
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := oracle.BenjaminiHochberg(nil, 0.05); got != nil {
		t.Error("BH(nil) should be nil")
	}
	if got := oracle.BenjaminiYekutieli(nil, 0.05, 0); len(got) != 0 {
		t.Error("BY(nil) should be empty")
	}
	if ell := mht.BYPrefix(nil, 0.05, 0); ell != 0 {
		t.Errorf("BYPrefix(nil) = %d, want 0", ell)
	}
	if got := oracle.Bonferroni(nil, 0.05, 0); len(got) != 0 {
		t.Error("Bonferroni(nil) should be empty")
	}
	if got := oracle.Holm(nil, 0.05); len(got) != 0 {
		t.Error("Holm(nil) should be empty")
	}
}

// FuzzBYPrefix holds the prefix rule against the oracle's BY mask: on any
// p-values, with ties forced by repeating the first few values and any
// hypothesis count m >= len, the p-values at most sorted[BYPrefix-1] are
// exactly the ones oracle.BenjaminiYekutieli rejects. Two bytes make one
// p-value, a mantissa over a power of ten down to 1e-15, so many fall under
// the BY line.
func FuzzBYPrefix(f *testing.F) {
	f.Add([]byte{0, 0, 3, 9, 15, 200, 15, 200, 2, 7}, uint8(0), 0.0, uint16(3276))
	f.Add([]byte{12, 1, 12, 1, 12, 1, 11, 255, 0, 4}, uint8(2), 5.0, uint16(65535))
	f.Add([]byte{15, 0, 14, 0, 13, 0, 9, 9}, uint8(1), 1e12, uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, distinct uint8, extraM float64, betaBits uint16) {
		p := make([]float64, len(raw)/2)
		for i := range p {
			p[i] = (0.5 + float64(raw[2*i+1])/512) * math.Pow(10, -float64(raw[2*i]%16))
			if d := int(distinct); d > 0 && i >= d {
				p[i] = p[i%d]
			}
		}
		m := float64(len(p))
		if extraM > 0 && extraM < 1e18 {
			m += extraM
		}
		beta := (float64(betaBits) + 1) / 65537
		want := oracle.BenjaminiYekutieli(p, beta, m)

		sorted := append([]float64(nil), p...)
		sort.Float64s(sorted)
		ell := mht.BYPrefix(sorted, beta, m)
		for i, pv := range p {
			if got := ell > 0 && pv <= sorted[ell-1]; got != want[i] {
				t.Fatalf("p = %v, m = %v, beta = %v: prefix %d selects p[%d] = %v: %v, oracle mask %v",
					p, m, beta, ell, i, pv, got, want[i])
			}
		}
	})
}
