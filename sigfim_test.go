package sigfim

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func toyDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := FromTransactions([][]uint32{
		{0, 1, 2}, {0, 1}, {0, 1, 3}, {2, 3}, {0, 1, 2, 3}, {4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFromTransactionsAndAccessors(t *testing.T) {
	d := toyDataset(t)
	if d.NumItems() != 5 || d.NumTransactions() != 6 {
		t.Fatalf("dims = %d,%d", d.NumItems(), d.NumTransactions())
	}
	if got := d.Support([]uint32{0, 1}); got != 4 {
		t.Errorf("Support = %d, want 4", got)
	}
	tr := d.Transaction(0)
	if len(tr) != 3 || tr[0] != 0 {
		t.Errorf("Transaction(0) = %v", tr)
	}
}

func TestFIMIRoundTripPublic(t *testing.T) {
	d := toyDataset(t)
	var buf bytes.Buffer
	if err := d.WriteFIMI(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadFIMI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumTransactions() != d.NumTransactions() {
		t.Fatal("round trip changed t")
	}
	if _, err := ReadFIMI(strings.NewReader("1 junk")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestProfileMeasurement(t *testing.T) {
	d := toyDataset(t)
	p := d.Profile("toy")
	if p.Name != "toy" || p.NumItems != 5 || p.NumTransactions != 6 {
		t.Fatalf("profile = %+v", p)
	}
	if p.FMax != 4.0/6 {
		t.Errorf("fmax = %v", p.FMax)
	}
	if math.Abs(p.AvgTransactionLen-15.0/6) > 1e-12 {
		t.Errorf("avg len = %v", p.AvgTransactionLen)
	}
}

func TestMineFacadeAlgorithms(t *testing.T) {
	d := toyDataset(t)
	var ref []Pattern
	for _, algo := range []string{"", AlgoAuto, AlgoEclat, AlgoEclatBit, AlgoApriori, AlgoFPGrowth} {
		ps, err := d.Mine(MineOptions{K: 2, MinSupport: 2, Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if ref == nil {
			ref = ps
			continue
		}
		if len(ps) != len(ref) {
			t.Fatalf("%s disagrees: %d vs %d patterns", algo, len(ps), len(ref))
		}
		for i := range ps {
			if ps[i].Support != ref[i].Support {
				t.Fatalf("%s support mismatch", algo)
			}
		}
	}
	if _, err := d.Mine(MineOptions{K: 2, MinSupport: 1, Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := d.Mine(MineOptions{K: 2, MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
}

func TestCountKMatchesMinePublic(t *testing.T) {
	d := toyDataset(t)
	for k := 1; k <= 3; k++ {
		for s := 1; s <= 4; s++ {
			ps, err := d.Mine(MineOptions{K: k, MinSupport: s})
			if err != nil {
				t.Fatal(err)
			}
			if got := d.CountK(k, s); got != int64(len(ps)) {
				t.Fatalf("CountK(%d,%d) = %d, want %d", k, s, got, len(ps))
			}
		}
	}
}

func TestClosedItemsetsPublic(t *testing.T) {
	d, err := FromTransactions([][]uint32{{0, 1}, {0, 1}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	closed := d.ClosedItemsets(1)
	// Closed sets: {0,1} (sup 3), {0,1,2} (sup 1).
	if len(closed) != 2 {
		t.Fatalf("closed = %v", closed)
	}
	big, ok := d.LargestClosedItemset(1)
	if !ok || len(big.Items) != 3 {
		t.Fatalf("largest closed = %v, %v", big, ok)
	}
	if _, ok := toyDatasetEmpty().LargestClosedItemset(1); ok {
		t.Error("empty dataset has a largest closed itemset")
	}
}

func toyDatasetEmpty() *Dataset {
	d, _ := FromTransactions([][]uint32{{}, {}})
	return d
}

func TestRandomTwinPreservesProfile(t *testing.T) {
	spec, err := BenchmarkProfile("Bms1")
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Scale(64).Random(1)
	twin := d.RandomTwin(2)
	if twin.NumTransactions() != d.NumTransactions() || twin.NumItems() != d.NumItems() {
		t.Fatal("twin dims differ")
	}
	// Frequencies approximately preserved in aggregate.
	a := d.Profile("a")
	b := twin.Profile("b")
	if math.Abs(a.AvgTransactionLen-b.AvgTransactionLen) > 0.3*a.AvgTransactionLen+0.2 {
		t.Errorf("twin mean length %v vs %v", b.AvgTransactionLen, a.AvgTransactionLen)
	}
}

// TestGenerateRandomOutOfRangeFrequencies: a NaN frequency once reached
// generation unchecked and panicked sizing the item's column.
func TestGenerateRandomOutOfRangeFrequencies(t *testing.T) {
	d := GenerateRandom(Profile{NumTransactions: 10, Freqs: []float64{math.NaN(), 0.5, 2, -1}}, 1)
	if d.NumTransactions() != 10 || d.NumItems() != 4 {
		t.Fatalf("dims %d x %d, want 10 x 4", d.NumTransactions(), d.NumItems())
	}
	for item, want := range map[uint32]int{0: 0, 2: 10, 3: 0} {
		if got := d.Support([]uint32{item}); got != want {
			t.Errorf("item %d support %d, want %d", item, got, want)
		}
	}
}

// TestGenerateRandomNegativeTransactionCount: a negative count once
// reached the horizontal conversion and panicked slicing to it.
func TestGenerateRandomNegativeTransactionCount(t *testing.T) {
	d := GenerateRandom(Profile{NumTransactions: -5, Freqs: []float64{0.5, 1}}, 1)
	if d.NumTransactions() != 0 || d.NumItems() != 2 {
		t.Fatalf("dims %d x %d, want 0 x 2", d.NumTransactions(), d.NumItems())
	}
	if got := d.Support([]uint32{1}); got != 0 {
		t.Errorf("item 1 support %d, want 0", got)
	}
}

func TestSwapTwinPreservesMarginsExactly(t *testing.T) {
	d := toyDataset(t)
	twin := d.SwapTwin(3)
	for i := 0; i < d.NumTransactions(); i++ {
		if len(d.Transaction(i)) != len(twin.Transaction(i)) {
			t.Fatal("swap twin changed a transaction length")
		}
	}
	ap, bp := d.Profile("a"), twin.Profile("b")
	for i := range ap.Freqs {
		if ap.Freqs[i] != bp.Freqs[i] {
			t.Fatal("swap twin changed item frequencies")
		}
	}
}

func TestBenchmarkProfilesPublic(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 6 {
		t.Fatalf("profiles = %v", names)
	}
	if _, err := BenchmarkProfile("bogus"); err == nil {
		t.Error("bogus profile accepted")
	}
	spec, err := BenchmarkProfile("Retail")
	if err != nil {
		t.Fatal(err)
	}
	if spec.NumItems() != 16470 || spec.NumTransactions() != 88162 {
		t.Errorf("Retail dims = %d,%d", spec.NumItems(), spec.NumTransactions())
	}
	scaled := spec.Scale(16)
	if scaled.NumTransactions() != 88162/16 {
		t.Errorf("scaled t = %d", scaled.NumTransactions())
	}
	if scaled.Name() == "Retail" {
		t.Error("scaled name unchanged")
	}
}

func TestSignificantEndToEndNull(t *testing.T) {
	// A pure random benchmark twin should report s* = infinity.
	spec, err := BenchmarkProfile("Bms1")
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Scale(64).Random(7)
	rep, err := d.Significant(2, &Config{Delta: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Infinite {
		t.Errorf("null twin produced finite s* = %d (Q=%d, lambda=%v)",
			rep.SStar, rep.NumSignificant, rep.Lambda)
	}
	if len(rep.Steps) == 0 {
		t.Error("no ladder steps recorded")
	}
}

func TestSignificantEndToEndPlanted(t *testing.T) {
	spec, err := BenchmarkProfile("Bms1")
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Scale(16).Real(7)
	rep, err := d.Significant(2, &Config{Delta: 120, Seed: 5, WithBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Infinite {
		t.Fatal("planted benchmark reported infinite s*")
	}
	if rep.NumSignificant < 1 {
		t.Fatal("no significant itemsets")
	}
	if rep.Lambda > float64(rep.NumSignificant) {
		t.Errorf("lambda %v exceeds observed %d", rep.Lambda, rep.NumSignificant)
	}
	if int64(len(rep.Significant)) != rep.NumSignificant {
		t.Errorf("materialized %d of %d", len(rep.Significant), rep.NumSignificant)
	}
	if rep.Baseline == nil {
		t.Fatal("baseline missing")
	}
}

// TestSignificantReportIndependentOfMiner: Config.Algorithm is accepted for
// compatibility and otherwise ignored, so no accepted name may show in a
// result. For every name, the Westfall-Young report under both nulls is
// JSON byte-identical to auto's, FindSMin gives auto's ŝ_min, and
// ResolveConfig returns AlgoAuto. The Bms1/4 baseline at k = 3 flags
// thousands of itemsets, many tied in both p-value and support, so an
// order that is not total would also show here; the swap null runs at
// k = 2 on Bms1/8, where its chain stays cheap.
func TestSignificantReportIndependentOfMiner(t *testing.T) {
	spec, err := BenchmarkProfile("Bms1")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{AlgoAuto, "", AlgoEclat, "eclat-tids", AlgoEclatBit, AlgoApriori, AlgoFPGrowth}
	for _, c := range []struct {
		d        *Dataset
		k        int
		swapNull bool
		minFlags int
	}{
		{spec.Scale(4).Real(20090629), 3, false, 100},
		{spec.Scale(8).Real(20090629), 2, true, 10},
	} {
		var want []byte
		var wantSMin int
		for _, algo := range names {
			cfg := &Config{Delta: 40, Seed: 3, Workers: 1, Correction: CorrectionWestfallYoung, SwapNull: c.swapNull, SwapProposals: 20000, Algorithm: algo}
			if resolved, err := c.d.ResolveConfig(c.k, cfg, false); err != nil || resolved.Algorithm != AlgoAuto {
				t.Fatalf("%q resolved to algorithm %q (%v), want %q", algo, resolved.Algorithm, err, AlgoAuto)
			}
			rep, err := c.d.Significant(c.k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Baseline == nil || len(rep.Baseline.Significant) < c.minFlags {
				t.Fatalf("%q swap=%v: baseline too small to test ordering: %+v", algo, c.swapNull, rep.Baseline)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			sMin, err := c.d.FindSMin(c.k, &Config{Delta: 40, Seed: 3, Workers: 1, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want, wantSMin = got, sMin
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%q swap=%v: report JSON differs from %q's", algo, c.swapNull, AlgoAuto)
			}
			if sMin != wantSMin {
				t.Fatalf("%q: FindSMin = %d, %q's is %d", algo, sMin, AlgoAuto, wantSMin)
			}
		}
	}
}

// TestPowerRatioEmptyBaseline: with Δ < 19 replicates no Westfall-Young
// adjusted p-value can reach beta, so |R| = 0 while s* stays finite. The
// ratio is then undefined; the report carries 0 and must still encode as
// JSON (sigfimd serves reports as JSON).
func TestPowerRatioEmptyBaseline(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Significant(2, &Config{Delta: 10, Seed: 9, Correction: CorrectionWestfallYoung})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Infinite || rep.Baseline == nil || rep.Baseline.NumSignificant != 0 {
		t.Fatalf("want finite s* with an empty baseline, got infinite=%v baseline=%+v", rep.Infinite, rep.Baseline)
	}
	if rep.PowerRatio != 0 {
		t.Errorf("PowerRatio = %v, want 0", rep.PowerRatio)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not encode: %v", err)
	}
}

func TestFindSMinPublic(t *testing.T) {
	spec, err := BenchmarkProfile("Bms1")
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Scale(64).Random(3)
	s, err := d.FindSMin(2, &Config{Delta: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s < 1 {
		t.Errorf("s_min = %d", s)
	}
}

func TestMaximalAndTopKPublic(t *testing.T) {
	d := toyDataset(t)
	maximal := d.MaximalItemsets(2)
	if len(maximal) == 0 {
		t.Fatal("no maximal itemsets")
	}
	// No maximal itemset may contain another.
	for i, a := range maximal {
		for j, b := range maximal {
			if i == j || len(a.Items) >= len(b.Items) {
				continue
			}
			contained := true
			bi := 0
			for _, x := range a.Items {
				for bi < len(b.Items) && b.Items[bi] < x {
					bi++
				}
				if bi >= len(b.Items) || b.Items[bi] != x {
					contained = false
					break
				}
			}
			if contained {
				t.Fatalf("maximal %v contained in %v", a.Items, b.Items)
			}
		}
	}
	top := d.TopKItemsets(2, 3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d", len(top))
	}
	if top[0].Support < top[1].Support || top[1].Support < top[2].Support {
		t.Fatal("TopK not descending")
	}
}

func TestRulesPublic(t *testing.T) {
	d, err := FromTransactions([][]uint32{
		{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1},
		{0, 2}, {1}, {2}, {0, 1}, {0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := d.Rules(RuleOptions{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].PValue < rules[i-1].PValue {
			t.Fatal("rules not sorted by p-value")
		}
	}
	if _, err := d.Rules(RuleOptions{MinSupport: 0}); err == nil {
		t.Error("MinSupport 0 accepted")
	}
	sig, err := d.SignificantRules(RuleOptions{MinSupport: 2}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) > len(rules) {
		t.Fatal("selection grew the set")
	}
}
