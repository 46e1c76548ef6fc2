package randmodel

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/oracle"
	"sigfim/internal/stats"
)

func TestIndependentModelValidate(t *testing.T) {
	if err := (IndependentModel{T: 10, Freqs: []float64{0.5}}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (IndependentModel{T: -1}).Validate(); err == nil {
		t.Error("negative t accepted")
	}
	if err := (IndependentModel{T: 1, Freqs: []float64{1.5}}).Validate(); err == nil {
		t.Error("f > 1 accepted")
	}
	if err := (IndependentModel{T: 1, Freqs: []float64{math.NaN()}}).Validate(); err == nil {
		t.Error("f = NaN accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	m := IndependentModel{T: 500, Freqs: []float64{0.1, 0, 1, 0.5}}
	r := stats.NewRNG(1)
	v := m.Generate(r)
	if v.NumTransactions != 500 || v.NumItems() != 4 {
		t.Fatalf("dims = %d,%d", v.NumTransactions, v.NumItems())
	}
	if len(v.Tids[1]) != 0 {
		t.Error("f=0 item has occurrences")
	}
	if len(v.Tids[2]) != 500 {
		t.Errorf("f=1 item has %d occurrences, want 500", len(v.Tids[2]))
	}
	// tids must be strictly increasing and in range.
	for it, l := range v.Tids {
		for i, tid := range l {
			if int(tid) >= 500 || (i > 0 && l[i-1] >= tid) {
				t.Fatalf("item %d tid list invalid at %d", it, i)
			}
		}
	}
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	m := IndependentModel{T: 200, Freqs: []float64{0.3, 0.1, 0.7}}
	a := m.Generate(stats.NewRNG(42))
	b := m.Generate(stats.NewRNG(42))
	for it := range a.Tids {
		if len(a.Tids[it]) != len(b.Tids[it]) {
			t.Fatal("same seed, different datasets")
		}
		for i := range a.Tids[it] {
			if a.Tids[it][i] != b.Tids[it][i] {
				t.Fatal("same seed, different datasets")
			}
		}
	}
}

func TestItemSupportsMatchBinomial(t *testing.T) {
	// Marginal check: the support of item i across replicates must be
	// Binomial(t, f_i). Chi-square on binned counts.
	const t_ = 300
	const reps = 3000
	f := 0.2
	m := IndependentModel{T: t_, Freqs: []float64{f}}
	r := stats.NewRNG(7)
	sample := make([]int, reps)
	for i := range sample {
		sample[i] = len(m.Generate(r.Split()).Tids[0])
	}
	b := stats.Binomial{N: t_, P: f}
	lo, hi := b.Quantile(0.0005), b.Quantile(0.9995)
	obs := make([]float64, hi-lo+3)
	exp := make([]float64, hi-lo+3)
	for _, v := range sample {
		switch {
		case v < lo:
			obs[0]++
		case v > hi:
			obs[len(obs)-1]++
		default:
			obs[v-lo+1]++
		}
	}
	exp[0] = reps * b.CDF(lo-1)
	exp[len(exp)-1] = reps * b.UpperTail(hi+1)
	for v := lo; v <= hi; v++ {
		exp[v-lo+1] = reps * b.PMF(v)
	}
	res := oracle.ChiSquareTest(obs, exp, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("item support not Binomial: chi2 p=%v", res.PValue)
	}
}

func TestPairSupportMatchesProductBinomial(t *testing.T) {
	// Joint check: support of a pair (i,j) must be Binomial(t, f_i*f_j)
	// because placements are independent across items.
	const t_ = 400
	const reps = 2500
	m := IndependentModel{T: t_, Freqs: []float64{0.3, 0.25}}
	r := stats.NewRNG(8)
	mean := 0.0
	for i := 0; i < reps; i++ {
		v := m.Generate(r.Split())
		mean += float64(v.Support([]uint32{0, 1}))
	}
	mean /= reps
	want := t_ * 0.3 * 0.25
	se := math.Sqrt(want / reps) // variance ~ mean for small p
	if math.Abs(mean-want) > 8*se {
		t.Errorf("pair support mean %v, want %v", mean, want)
	}
}

func TestReplicates(t *testing.T) {
	m := IndependentModel{T: 50, Freqs: []float64{0.5, 0.5}}
	r := stats.NewRNG(3)
	reps := make([]*dataset.Vertical, 5)
	for i := range reps {
		reps[i] = m.Generate(r.Split())
	}
	// Replicates must differ (they use split streams).
	same := 0
	for i := 1; i < len(reps); i++ {
		if len(reps[i].Tids[0]) == len(reps[0].Tids[0]) {
			same++
		}
	}
	if same == 4 {
		// Identical support four times is possible but astronomically
		// unlikely to co-occur with identical tid content; check content.
		identical := true
		for i := range reps[0].Tids[0] {
			if reps[1].Tids[0][i] != reps[0].Tids[0][i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("replicates appear identical")
		}
	}
}

// drawR draws one frequency from d, so TestRDistMoments can check each
// analytic moment against an empirical one.
func drawR(d oracle.RDist, r *stats.RNG) float64 {
	switch d := d.(type) {
	case oracle.PointR:
		return d.P
	case oracle.UniformR:
		return d.A + (d.B-d.A)*r.Float64()
	case oracle.TwoPointR:
		if r.Bernoulli(d.W) {
			return d.Hi
		}
		return d.Lo
	case oracle.EmpiricalR:
		return d.Freqs[r.Intn(len(d.Freqs))]
	}
	panic(fmt.Sprintf("drawR: unknown RDist %T", d))
}

func TestRDistMoments(t *testing.T) {
	r := stats.NewRNG(11)
	dists := []oracle.RDist{
		oracle.PointR{P: 0.3},
		oracle.UniformR{A: 0.1, B: 0.4},
		oracle.TwoPointR{Lo: 0.01, Hi: 0.3, W: 0.2},
		oracle.EmpiricalR{Freqs: []float64{0.1, 0.2, 0.3, 0.4}},
	}
	const trials = 200000
	for _, d := range dists {
		for _, j := range []int{1, 2, 4} {
			emp := 0.0
			for i := 0; i < trials; i++ {
				emp += math.Pow(drawR(d, r), float64(j))
			}
			emp /= trials
			want := d.Moment(j)
			if math.Abs(emp-want) > 0.02*want+1e-4 {
				t.Errorf("%T moment %d: empirical %v vs analytic %v", d, j, emp, want)
			}
		}
	}
}

func TestUniformRDegenerate(t *testing.T) {
	d := oracle.UniformR{A: 0.25, B: 0.25}
	if got := d.Moment(2); math.Abs(got-0.0625) > 1e-12 {
		t.Errorf("degenerate uniform moment = %v", got)
	}
}

func TestSwapPreservesMargins(t *testing.T) {
	r := stats.NewRNG(21)
	// Random base dataset.
	tx := make([][]uint32, 60)
	for i := range tx {
		for it := 0; it < 15; it++ {
			if r.Bernoulli(0.25) {
				tx[i] = append(tx[i], uint32(it))
			}
		}
	}
	d := dataset.MustNew(15, tx)
	randomized := SwapRandomize(d, 10, r)
	// Column margins (item supports).
	a, b := d.ItemSupports(), randomized.ItemSupports()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d support changed: %d -> %d", i, a[i], b[i])
		}
	}
	// Row margins (transaction lengths).
	for i := 0; i < d.NumTransactions(); i++ {
		if len(d.Transaction(i)) != len(randomized.Transaction(i)) {
			t.Fatalf("transaction %d length changed", i)
		}
	}
}

func TestSwapActuallyMixes(t *testing.T) {
	r := stats.NewRNG(22)
	tx := make([][]uint32, 80)
	for i := range tx {
		for it := 0; it < 20; it++ {
			if r.Bernoulli(0.3) {
				tx[i] = append(tx[i], uint32(it))
			}
		}
	}
	d := dataset.MustNew(20, tx)
	sr := NewSwapRandomizer(d)
	oracleRNG := *r // the oracle and SwapRandomize run the same stream
	if applied := sr.Run(10*len(sr.occTid), &oracleRNG); applied == 0 {
		t.Fatal("no swap ever applied")
	}
	randomized := SwapRandomize(d, 10, r)
	if !reflect.DeepEqual(randomized.Transactions(), sr.Dataset().Transactions()) {
		t.Fatal("SwapRandomize diverged from the oracle chain")
	}
	// At least one transaction must differ from the original.
	differs := false
	for i := 0; i < d.NumTransactions() && !differs; i++ {
		a, b := d.Transaction(i), randomized.Transaction(i)
		for j := range a {
			if a[j] != b[j] {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Error("chain did not move")
	}
}

func TestSwapModelInterface(t *testing.T) {
	r := stats.NewRNG(23)
	d := dataset.MustNew(3, [][]uint32{{0, 1}, {1, 2}, {0, 2}, {0}})
	var m Model = &SwapModel{Base: d}
	v := m.Generate(r)
	if v.NumTransactions != 4 || m.NumItems() != 3 || m.NumTransactions() != 4 {
		t.Fatal("SwapModel dims")
	}
	// Margins preserved through the interface path too.
	sup := v.ItemSupports()
	wantSup := d.ItemSupports()
	for i := range sup {
		if sup[i] != wantSup[i] {
			t.Fatal("SwapModel changed margins")
		}
	}
}

func TestSwapDegenerateInputs(t *testing.T) {
	r := stats.NewRNG(24)
	// Single occurrence: chain can never move but must not crash.
	d := dataset.MustNew(1, [][]uint32{{0}})
	out := SwapRandomize(d, 10, r)
	if out.NumTransactions() != 1 || out.Support([]uint32{0}) != 1 {
		t.Fatal("degenerate swap broke dataset")
	}
	// Empty dataset.
	e := dataset.MustNew(0, nil)
	out = SwapRandomize(e, 10, r)
	if out.NumTransactions() != 0 {
		t.Fatal("empty swap broke dataset")
	}
}
