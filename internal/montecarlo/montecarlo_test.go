package montecarlo

import (
	"context"
	"math"
	"reflect"
	"testing"

	"sigfim/internal/mining"
	"sigfim/internal/oracle"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

func uniformModel(n, t int, p float64) randmodel.IndependentModel {
	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = p
	}
	return randmodel.IndependentModel{T: t, Freqs: freqs}
}

func TestConfigValidation(t *testing.T) {
	m := uniformModel(5, 20, 0.2)
	bad := []Config{
		{K: 0, Delta: 10, Epsilon: 0.01},
		{K: 2, Delta: 0, Epsilon: 0.01},
		{K: 2, Delta: 10, Epsilon: 0},
		{K: 2, Delta: 10, Epsilon: 1},
	}
	for _, cfg := range bad {
		if _, err := FindPoissonThreshold(m, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestFindThresholdDeterministicBySeed(t *testing.T) {
	m := uniformModel(30, 300, 0.1)
	cfg := Config{K: 2, Delta: 200, Epsilon: 0.01, Seed: 99}
	a, err := FindPoissonThreshold(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindPoissonThreshold(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SMin != b.SMin || a.NumItemsets != b.NumItemsets {
		t.Errorf("same seed, different results: %d/%d vs %d/%d",
			a.SMin, a.NumItemsets, b.SMin, b.NumItemsets)
	}
}

// TestFindThresholdAlgorithmAgreement runs Algorithm 1 with every replicate
// miner: the mined union set W is algorithm-independent, so SMin, the floor,
// and the itemset count must agree exactly — and, for a fixed algorithm, be
// identical across worker counts.
func TestFindThresholdAlgorithmAgreement(t *testing.T) {
	m := uniformModel(25, 250, 0.1)
	base := Config{K: 2, Delta: 120, Epsilon: 0.01, Seed: 7, Workers: 1}
	ref, err := FindPoissonThreshold(m, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []mining.Algorithm{mining.EclatTids, mining.Apriori, mining.FPGrowth} {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Algorithm = algo
			cfg.Workers = workers
			res, err := FindPoissonThreshold(m, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", algo, workers, err)
			}
			if res.SMin != ref.SMin || res.Floor != ref.Floor || res.NumItemsets != ref.NumItemsets {
				t.Fatalf("%v workers=%d: SMin/Floor/|W| = %d/%d/%d, want %d/%d/%d",
					algo, workers, res.SMin, res.Floor, res.NumItemsets,
					ref.SMin, ref.Floor, ref.NumItemsets)
			}
		}
	}
}

func TestSMinNearAnalytic(t *testing.T) {
	// In the uniform regime the Monte Carlo ŝ_min should land near the
	// analytic exact-bound threshold (which optimizes eps, not eps/4; the
	// MC uses eps/4, so it can sit slightly higher).
	n, tt, p := 12, 250, 0.15
	m := uniformModel(n, tt, p)
	res, err := FindPoissonThreshold(m, Config{K: 2, Delta: 400, Epsilon: 0.04, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = p
	}
	exactQuarter, ok := oracle.SMinExact(freqs, tt, 2, 0.01) // eps/4 = 0.01
	if !ok {
		t.Fatal("no exact threshold")
	}
	if d := res.SMin - exactQuarter; d < -3 || d > 3 {
		t.Errorf("MC ŝ_min = %d, exact eps/4 threshold = %d", res.SMin, exactQuarter)
	}
}

func TestBoundCurveMonotone(t *testing.T) {
	m := uniformModel(25, 300, 0.12)
	res, err := FindPoissonThreshold(m, Config{K: 2, Delta: 300, Epsilon: 0.02, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Completed curve points are sorted by s; b1+b2 must be non-increasing
	// (partial points stopped early and only lower-bound the true value).
	prev := math.Inf(1)
	for _, bp := range res.Curve {
		if bp.Partial {
			continue
		}
		cur := bp.B1 + bp.B2
		if cur > prev*(1+1e-9)+1e-12 {
			t.Fatalf("empirical bound increased at s=%d: %v -> %v", bp.S, prev, cur)
		}
		prev = cur
	}
	// SMin is the crossing: bound at SMin <= eps/4.
	for _, bp := range res.Curve {
		if bp.S == res.SMin && bp.B1+bp.B2 > 0.02/4 {
			t.Errorf("bound at ŝ_min = %v exceeds eps/4", bp.B1+bp.B2)
		}
	}
}

func TestEmptyWReturnsOne(t *testing.T) {
	// Frequencies so tiny that no k-itemset ever reaches support 1.
	m := uniformModel(10, 20, 1e-6)
	res, err := FindPoissonThreshold(m, Config{K: 3, Delta: 30, Epsilon: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SMin != 1 {
		t.Errorf("empty W should give ŝ_min = 1, got %d", res.SMin)
	}
}

func TestLambdaEstimatorAgainstExact(t *testing.T) {
	n, tt, p := 12, 200, 0.2
	m := uniformModel(n, tt, p)
	res, err := FindPoissonThreshold(m, Config{K: 2, Delta: 500, Epsilon: 0.01, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	freqs := make([]float64, n)
	for i := range freqs {
		freqs[i] = p
	}
	for s := res.SMin; s < res.SMin+3 && s <= tt; s++ {
		if s < res.Floor {
			continue
		}
		want := oracle.ExactLambda(freqs, tt, 2, s)
		got := res.Lambda(s)
		se := math.Sqrt(want / float64(res.Delta))
		if math.Abs(got-want) > 6*se+0.05*want+0.02 {
			t.Errorf("Lambda(%d) = %v, exact %v", s, got, want)
		}
	}
}

func TestLambdaBelowFloorPanics(t *testing.T) {
	m := uniformModel(10, 100, 0.3)
	res, err := FindPoissonThreshold(m, Config{K: 2, Delta: 100, Epsilon: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Floor <= 1 {
		t.Skip("floor reached 1; nothing below it")
	}
	defer func() {
		if recover() == nil {
			t.Error("Lambda below floor should panic")
		}
	}()
	res.Lambda(res.Floor - 1)
}

// replicateQ returns Q̂_{k,s} of each of reps replicates of m: MineRange
// at Floor s counts each replicate's k-itemsets with support >= s, and
// replicate i is seeded by the i-th draw of seed's stream, as Algorithm 1
// seeds its replicates.
func replicateQ(t *testing.T, m randmodel.Model, k, s, reps int, seed uint64) []int {
	t.Helper()
	r := stats.NewRNG(seed)
	seeds := make([]uint64, reps)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	var p Partial
	req := RangeRequest{Range: ReplicateRange{From: 0, To: reps}, K: k, Floor: s, Seeds: seeds}
	if err := MineRange(context.Background(), randmodel.Prepare(m), req, nil, &p); err != nil {
		t.Fatal(err)
	}
	q := make([]int, reps)
	for i, c := range p.Counts {
		q[i] = int(c)
	}
	return q
}

func TestEstimateLambdaMatchesExact(t *testing.T) {
	freqs := []float64{0.3, 0.25, 0.2, 0.15, 0.35}
	m := randmodel.IndependentModel{T: 80, Freqs: freqs}
	k, s := 2, 5
	want := oracle.ExactLambda(freqs, 80, k, s)
	total := 0
	for _, q := range replicateQ(t, m, k, s, 4000, 7) {
		total += q
	}
	got := float64(total) / 4000
	se := math.Sqrt(want / 4000)
	if math.Abs(got-want) > 8*se+0.02 {
		t.Errorf("mean Q̂ = %v, exact λ %v", got, want)
	}
}

func TestSampleQPoissonAboveSMin(t *testing.T) {
	// The headline theory: above ŝ_min, Q̂_{k,s} is approximately Poisson.
	n, tt, p := 25, 300, 0.12
	m := uniformModel(n, tt, p)
	res, err := FindPoissonThreshold(m, Config{K: 2, Delta: 300, Epsilon: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := res.SMin
	sample := replicateQ(t, m, 2, s, 1500, 17)
	lam := 0.0
	for _, q := range sample {
		lam += float64(q)
	}
	lam /= float64(len(sample))
	if lam == 0 {
		t.Skip("degenerate: no itemsets at s_min")
	}
	tv := oracle.TotalVariationPoisson(sample, lam)
	if tv > 0.08 {
		t.Errorf("TV distance to Poisson at ŝ_min = %v", tv)
	}
}

func TestMaxEntriesGuard(t *testing.T) {
	// Dense model with floor 1 explodes; the budget must trip.
	m := uniformModel(30, 50, 0.5)
	_, err := FindPoissonThreshold(m, Config{K: 3, Delta: 50, Epsilon: 0.01, Seed: 4, MaxEntries: 1000})
	if err == nil {
		t.Skip("model found a threshold without tripping the budget")
	}
}

func TestAdaptivePruningPath(t *testing.T) {
	// A sparse model whose s-tilde collapses below 1 and whose floor-1
	// itemset volume is large relative to a tiny artificial budget forces
	// the adaptive pruning to engage; the result must stay consistent:
	// SMin >= Floor and Lambda valid from Floor upward.
	freqs := make([]float64, 120)
	for i := range freqs {
		freqs[i] = 0.02
	}
	m := randmodel.IndependentModel{T: 3000, Freqs: freqs}
	res, err := FindPoissonThreshold(m, Config{K: 3, Delta: 150, Epsilon: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.SMin < res.Floor {
		t.Errorf("SMin %d below effective floor %d", res.SMin, res.Floor)
	}
	if res.SMin <= res.SMax {
		lam := res.Lambda(res.SMin)
		if lam < 0 {
			t.Errorf("Lambda(%d) = %v", res.SMin, lam)
		}
	}
	// The bound at SMin (when evaluated) must satisfy eps/4.
	for _, bp := range res.Curve {
		if bp.S == res.SMin && !bp.Partial && bp.B1+bp.B2 > 0.01/4 {
			t.Errorf("bound at SMin = %v exceeds eps/4", bp.B1+bp.B2)
		}
	}
}

func TestCollectionPrune(t *testing.T) {
	col := newCollection(2, 1)
	// Three itemsets with supports spread over levels, merged in replicate
	// order as mergePartial appends them.
	for _, items := range []mining.Itemset{{0, 1}, {1, 2}, {2, 3}} {
		if _, added := col.index.Insert(items); !added {
			t.Fatalf("duplicate itemset %v in test setup", items)
		}
	}
	col.entries = []entry{
		{id: 0, rep: 0, sup: 1}, {id: 1, rep: 0, sup: 2},
		{id: 0, rep: 1, sup: 5}, {id: 1, rep: 1, sup: 2},
		{id: 0, rep: 2, sup: 9},
		{id: 2, rep: 3, sup: 7},
	}
	col.maxSup = 9
	col.prune(3)
	if col.numEntries() > 3 {
		t.Fatalf("prune left %d entries", col.numEntries())
	}
	if col.pruneFloor <= 1 {
		t.Fatalf("prune did not raise floor: %d", col.pruneFloor)
	}
	// Every retained entry respects the new floor, and the survivors keep
	// their relative id order: {0,1} then {2,3}, {1,2} dropped.
	for _, e := range col.entries {
		if int(e.sup) < col.pruneFloor {
			t.Fatalf("entry below floor retained: %v sup %d", col.itemsOf(int(e.id)), e.sup)
		}
	}
	if col.index.Len() != 2 || !reflect.DeepEqual(col.itemsOf(0), mining.Itemset{0, 1}) || !reflect.DeepEqual(col.itemsOf(1), mining.Itemset{2, 3}) {
		t.Fatalf("rebuilt table holds %d itemsets, want {0,1} and {2,3} in that order", col.index.Len())
	}
	// Index must be consistent with the entries: every stored tuple must find
	// its own id again, and every entry's id must be in the table.
	for id := 0; id < col.index.Len(); id++ {
		if got, added := col.index.Insert(col.index.Items(id)); added || got != id {
			t.Fatalf("itemset %v maps to id %d (added %v), want %d", col.itemsOf(id), got, added, id)
		}
	}
	col.group()
	want := [][]entry{
		{{id: 0, rep: 1, sup: 5}, {id: 0, rep: 2, sup: 9}},
		{{id: 1, rep: 3, sup: 7}},
	}
	for id, es := range want {
		if got := col.entriesOf(id); !reflect.DeepEqual(got, es) {
			t.Fatalf("grouped entries of id %d = %v, want %v", id, got, es)
		}
	}
}

// TestCollectionGroupStable: grouping by id keeps each itemset's entries in
// merge (ascending replicate) order, the order the evaluator has always
// summed in.
func TestCollectionGroupStable(t *testing.T) {
	col := newCollection(1, 1)
	for it := uint32(0); it < 3; it++ {
		col.index.Insert(mining.Itemset{it})
	}
	col.entries = []entry{
		{id: 2, rep: 0, sup: 4}, {id: 0, rep: 0, sup: 3},
		{id: 2, rep: 1, sup: 6}, {id: 1, rep: 1, sup: 2},
		{id: 0, rep: 2, sup: 8}, {id: 2, rep: 2, sup: 5},
	}
	col.group()
	want := [][]int32{{0, 2}, {1}, {0, 1, 2}}
	for id, reps := range want {
		es := col.entriesOf(id)
		if len(es) != len(reps) {
			t.Fatalf("id %d: %d entries, want %d", id, len(es), len(reps))
		}
		for i, e := range es {
			if int(e.id) != id || e.rep != reps[i] {
				t.Fatalf("id %d entry %d = %+v, want rep %d", id, i, e, reps[i])
			}
		}
	}
}
