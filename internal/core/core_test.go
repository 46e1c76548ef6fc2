package core

import (
	"math"
	"reflect"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/montecarlo"
	"sigfim/internal/oracle"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

// analysis is the paper's pipeline on one dataset, chained as sigfim's
// Dataset.SignificantCtx chains it: Algorithm 1, Procedure 2 from the
// start of the ladder Algorithm 1 returns, and Procedure 1 when asked.
type analysis struct {
	mc    *montecarlo.Result
	proc2 *Procedure2Result
	proc1 *Procedure1Result // nil unless a correction was given
}

// analyze runs the pipeline on v at the default budgets. cfg configures
// Algorithm 1 (K is set to k and a zero Epsilon to the default); a nil null
// selects the independence model from v's frequencies, and a non-empty
// correction runs Procedure 1 under it.
func analyze(t *testing.T, v *dataset.Vertical, k int, cfg montecarlo.Config, null randmodel.Model, correction string) analysis {
	t.Helper()
	if null == nil {
		null = randmodel.IndependentModel{T: v.NumTransactions, Freqs: v.Frequencies()}
	}
	cfg.K = k
	if cfg.Epsilon == 0 {
		cfg.Epsilon = DefaultEpsilon
	}
	mc, err := montecarlo.FindPoissonThreshold(null, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis{mc: mc}
	sMin, lambda := mc.Ladder()
	if a.proc2, err = Procedure2Ex(v, k, sMin, lambda, DefaultAlpha, DefaultBeta, SplitEqual, cfg.Workers, mining.Auto); err != nil {
		t.Fatal(err)
	}
	if correction != "" {
		if a.proc1, err = Procedure1Ex(v, k, sMin, DefaultBeta, correction, mc.MinPs); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// genNull draws a dataset from the independence model.
func genNull(t int, freqs []float64, seed uint64) *dataset.Vertical {
	m := randmodel.IndependentModel{T: t, Freqs: freqs}
	return m.Generate(stats.NewRNG(seed))
}

// plant forces the items of X to co-occur in extra transactions, overwriting
// the given tids' membership for those items.
func plant(v *dataset.Vertical, x []uint32, tids []uint32) *dataset.Vertical {
	d := v.Horizontal()
	tx := make([][]uint32, d.NumTransactions())
	for i := range tx {
		tx[i] = append([]uint32(nil), d.Transaction(i)...)
	}
	for _, tid := range tids {
		tx[tid] = append(tx[tid], x...)
	}
	return dataset.MustNew(d.NumItems(), tx).Vertical()
}

func uniformFreqs(n int, p float64) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = p
	}
	return f
}

func TestProcedure2Validation(t *testing.T) {
	v := genNull(50, uniformFreqs(5, 0.2), 1)
	lam := func(int) float64 { return 1 }
	if _, err := Procedure2Ex(v, 0, 1, lam, 0.05, 0.05, SplitEqual, 0, mining.Auto); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Procedure2Ex(v, 2, 0, lam, 0.05, 0.05, SplitEqual, 0, mining.Auto); err == nil {
		t.Error("sMin=0 accepted")
	}
	if _, err := Procedure2Ex(v, 2, 1, lam, 0, 0.05, SplitEqual, 0, mining.Auto); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Procedure2Ex(v, 2, 1, lam, 0.05, 1, SplitEqual, 0, mining.Auto); err == nil {
		t.Error("beta=1 accepted")
	}
}

func TestProcedure1Validation(t *testing.T) {
	v := genNull(50, uniformFreqs(5, 0.2), 1)
	if _, err := Procedure1Ex(v, 0, 1, 0.05, CorrectionBY, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Procedure1Ex(v, 2, 0, 0.05, CorrectionBY, nil); err == nil {
		t.Error("sMin=0 accepted")
	}
	if _, err := Procedure1Ex(v, 2, 1, 0, CorrectionBY, nil); err == nil {
		t.Error("beta=0 accepted")
	}
}

func TestProcedure2LadderShape(t *testing.T) {
	v := genNull(400, uniformFreqs(20, 0.15), 2)
	sMin := 5
	sMax := v.MaxItemSupport()
	lam := func(s int) float64 { return 1000 } // impossible null: never reject
	res, err := Procedure2Ex(v, 2, sMin, lam, 0.05, 0.05, SplitEqual, 0, mining.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("lambda=1000 should never reject")
	}
	wantH := int(math.Floor(math.Log2(float64(sMax-sMin)))) + 1
	if res.H != wantH {
		t.Fatalf("H = %d, want %d", res.H, wantH)
	}
	if len(res.Steps) != wantH {
		t.Fatalf("steps = %d, want %d", len(res.Steps), wantH)
	}
	if res.Steps[0].S != sMin {
		t.Errorf("s_0 = %d, want %d", res.Steps[0].S, sMin)
	}
	for i := 1; i < len(res.Steps); i++ {
		want := sMin + (1 << uint(i))
		if res.Steps[i].S != want {
			t.Errorf("s_%d = %d, want %d", i, res.Steps[i].S, want)
		}
		if math.Abs(res.Steps[i].AlphaI-0.05/float64(wantH)) > 1e-15 {
			t.Errorf("alpha_i = %v", res.Steps[i].AlphaI)
		}
	}
}

func TestProcedure2SMaxBelowSMin(t *testing.T) {
	v := genNull(50, uniformFreqs(5, 0.1), 3)
	res, err := Procedure2Ex(v, 2, v.MaxItemSupport()+5, func(int) float64 { return 0.1 }, 0.05, 0.05, SplitEqual, 0, mining.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.H != 0 {
		t.Errorf("sMax < sMin should test nothing: %+v", res)
	}
}

func TestProcedure2RejectsPlantedSignal(t *testing.T) {
	// Plant a strong pair: 60 joint occurrences where the null expects ~4.
	freqs := uniformFreqs(30, 0.1)
	v := genNull(400, freqs, 4)
	tids := make([]uint32, 60)
	for i := range tids {
		tids[i] = uint32(i)
	}
	v = plant(v, []uint32{0, 1}, tids)
	// Null expectation: lambda(s) from the exact model is tiny at s ~ 30.
	lam := func(s int) float64 {
		// Exact lambda under the null for the uniform model.
		p := stats.Binomial{N: 400, P: 0.01}
		tail := p.UpperTail(s)
		return 435 * tail // C(30,2)
	}
	res, err := Procedure2Ex(v, 2, 10, lam, 0.05, 0.05, SplitEqual, 0, mining.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("planted signal not detected")
	}
	if res.Q < 1 || res.Lambda > 1 {
		t.Errorf("suspicious rejection: Q=%d lambda=%v", res.Q, res.Lambda)
	}
	// The rejected step's guarantees must hold.
	last := res.Steps[len(res.Steps)-1]
	if !last.Rejected || last.PValue > last.AlphaI || !last.CountOK {
		t.Errorf("rejection conditions violated: %+v", last)
	}
}

func TestProcedure1FlagsPlantedPair(t *testing.T) {
	freqs := uniformFreqs(30, 0.1)
	v := genNull(400, freqs, 5)
	tids := make([]uint32, 60)
	for i := range tids {
		tids[i] = uint32(100 + i)
	}
	v = plant(v, []uint32{2, 3}, tids)
	res, err := Procedure1Ex(v, 2, 10, 0.05, CorrectionBY, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.Family {
		if s.Items.Equal(mining.Itemset{2, 3}) {
			found = true
			if s.PValue > 1e-10 {
				t.Errorf("planted pair p-value suspiciously large: %v", s.PValue)
			}
		}
	}
	if !found {
		t.Fatalf("planted pair not flagged; family = %v", res.Family)
	}
	if res.M != math.Exp(stats.LogChoose(30, 2)) {
		t.Errorf("M = %v", res.M)
	}
}

// TestProcedure1CapKeepsMostSignificant lowers the materialization cap below
// the family size: the kept itemsets must be the head of the whole family
// in its order, not the first ones the miner emits.
func TestProcedure1CapKeepsMostSignificant(t *testing.T) {
	v := genNull(400, uniformFreqs(30, 0.1), 5)
	// A clique of 8 items over 40..100 transactions: 28 planted pairs whose
	// supports, and so p-values, differ.
	for i := uint32(0); i < 8; i++ {
		tids := make([]uint32, 40+8*i)
		for j := range tids {
			tids[j] = uint32(3*j) + i
		}
		for x := i + 1; x < 8; x++ {
			v = plant(v, []uint32{20 + i, 20 + x}, tids)
		}
	}
	full, err := Procedure1Ex(v, 2, 10, 0.05, CorrectionBY, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Family) != full.FamilySize || full.FamilySize < 20 {
		t.Fatalf("uncapped family: %d of %d itemsets, want all of at least 20", len(full.Family), full.FamilySize)
	}
	for _, limit := range []int{1, 2, 5, full.FamilySize / 2, full.FamilySize - 1, full.FamilySize, full.FamilySize + 1} {
		res, err := Procedure1Capped(v, 2, 10, 0.05, CorrectionBY, limit)
		if err != nil {
			t.Fatal(err)
		}
		if res.FamilySize != full.FamilySize {
			t.Errorf("cap %d: FamilySize %d, want %d", limit, res.FamilySize, full.FamilySize)
		}
		want := full.Family[:min(limit, len(full.Family))]
		if !reflect.DeepEqual(res.Family, want) {
			t.Errorf("cap %d: family %v, want the family's head %v", limit, res.Family, want)
		}
	}
}

func TestProcedure1NullYieldsNothing(t *testing.T) {
	// On pure null data with a sane mining threshold, BY with m = C(n,k)
	// should reject nothing (or almost nothing).
	totalFlagged := 0
	for seed := uint64(0); seed < 5; seed++ {
		v := genNull(400, uniformFreqs(30, 0.1), 10+seed)
		res, err := Procedure1Ex(v, 2, 10, 0.05, CorrectionBY, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalFlagged += res.FamilySize
	}
	if totalFlagged > 1 {
		t.Errorf("null data produced %d discoveries across 5 runs", totalFlagged)
	}
}

func TestAnalyzeNullReturnsInfinity(t *testing.T) {
	// Table 4 logic: on data drawn from the null model itself, Procedure 2
	// should find no threshold.
	freqs := uniformFreqs(25, 0.12)
	foundCount := 0
	for seed := uint64(0); seed < 4; seed++ {
		v := genNull(300, freqs, 100+seed)
		a := analyze(t, v, 2, montecarlo.Config{Delta: 150, Seed: 7}, nil, CorrectionBY)
		if a.proc2.Found {
			foundCount++
		}
		if a.proc1.FamilySize > 2 {
			t.Errorf("seed %d: Procedure 1 flagged %d on null data", seed, a.proc1.FamilySize)
		}
	}
	if foundCount > 1 {
		t.Errorf("Procedure 2 found thresholds on %d of 4 null datasets", foundCount)
	}
}

func TestAnalyzePlantedFindsThresholdAndBeatsProc1(t *testing.T) {
	// Plant several overlapping strong pairs; Procedure 2 should find a
	// threshold, and its family should be at least as large as Procedure 1's
	// (the paper's r >= 1 observation).
	freqs := uniformFreqs(25, 0.12)
	v := genNull(300, freqs, 42)
	for i := 0; i < 4; i++ {
		tids := make([]uint32, 50)
		for j := range tids {
			tids[j] = uint32(50*i + j)
		}
		v = plant(v, []uint32{uint32(2 * i), uint32(2*i + 1)}, tids)
	}
	a := analyze(t, v, 2, montecarlo.Config{Delta: 200, Seed: 9}, nil, CorrectionBY)
	if !a.proc2.Found {
		t.Fatal("Procedure 2 missed planted structure")
	}
	if a.proc2.Lambda > float64(a.proc2.Q) {
		t.Errorf("flagged family smaller than null expectation: Q=%d lambda=%v",
			a.proc2.Q, a.proc2.Lambda)
	}
	if n := a.proc1.FamilySize; n > 0 && float64(a.proc2.Q) < 0.9*float64(n) {
		t.Errorf("power ratio %v < 1: Proc2 Q=%d vs Proc1 |R|=%d",
			float64(a.proc2.Q)/float64(n), a.proc2.Q, n)
	}
}

func TestAnalyzeEmpiricalFDROnPlanted(t *testing.T) {
	// Ground-truth FDR check: discoveries at s* that are not supersets of a
	// planted pair count as false. Averaged over trials the false fraction
	// should respect the beta = 0.05 budget with statistical slack.
	freqs := uniformFreqs(25, 0.12)
	plantedKeys := map[string]bool{}
	totalFalse, totalDisc := 0, 0
	for trial := uint64(0); trial < 3; trial++ {
		v := genNull(300, freqs, 200+trial)
		for i := 0; i < 4; i++ {
			x := mining.Itemset{uint32(2 * i), uint32(2*i + 1)}
			plantedKeys[x.Key()] = true
			tids := make([]uint32, 50)
			for j := range tids {
				tids[j] = uint32(50*i + j)
			}
			v = plant(v, x, tids)
		}
		a := analyze(t, v, 2, montecarlo.Config{Delta: 150, Seed: 31 + trial}, nil, "")
		if !a.proc2.Found {
			continue
		}
		discovered, err := mining.Mine(v, mining.Options{K: 2, MinSupport: a.proc2.SStar})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range discovered {
			totalDisc++
			if !plantedKeys[res.Items.Key()] {
				totalFalse++
			}
		}
	}
	if totalDisc == 0 {
		t.Fatal("no discoveries in any trial")
	}
	fdr := float64(totalFalse) / float64(totalDisc)
	if fdr > 0.25 {
		t.Errorf("empirical FDR %v (false %d of %d)", fdr, totalFalse, totalDisc)
	}
}

func TestAnalyzeWithSwapNullModel(t *testing.T) {
	// Swap randomization as the null: on a small planted dataset the
	// methodology should still detect the planted pair (its joint support
	// cannot be explained by margins alone).
	freqs := uniformFreqs(20, 0.15)
	v := genNull(250, freqs, 61)
	tids := make([]uint32, 50)
	for i := range tids {
		tids[i] = uint32(i)
	}
	v = plant(v, []uint32{0, 1}, tids)
	base := v.Horizontal()
	a := analyze(t, v, 2, montecarlo.Config{Delta: 60, Seed: 13},
		&randmodel.SwapModel{Base: base, ProposalsPerOccurrence: 4}, "")
	if !a.proc2.Found {
		t.Error("swap-null analysis missed the planted pair")
	}
}

func TestProcedure1StreamingMatchesDirectBY(t *testing.T) {
	// The two-pass streaming implementation must reproduce a direct
	// in-memory BY computation exactly.
	freqs := uniformFreqs(15, 0.2)
	v := genNull(200, freqs, 88)
	tids := make([]uint32, 40)
	for i := range tids {
		tids[i] = uint32(i)
	}
	v = plant(v, []uint32{3, 4}, tids)
	res, err := Procedure1Ex(v, 2, 5, 0.05, CorrectionBY, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Direct recomputation.
	mined, err := mining.Mine(v, mining.Options{K: 2, MinSupport: 5})
	if err != nil {
		t.Fatal(err)
	}
	fr := v.Frequencies()
	pvals := make([]float64, len(mined))
	for i, r := range mined {
		fX := fr[r.Items[0]] * fr[r.Items[1]]
		pvals[i] = stats.Binomial{N: 200, P: fX}.UpperTail(r.Support)
	}
	m := math.Exp(stats.LogChoose(15, 2))
	reject := oracle.BenjaminiYekutieli(pvals, 0.05, m)
	direct := 0
	for _, b := range reject {
		if b {
			direct++
		}
	}
	if res.FamilySize != direct {
		t.Fatalf("streaming FamilySize %d vs direct BY %d", res.FamilySize, direct)
	}
	if len(res.Family) != res.FamilySize {
		t.Fatalf("materialized %d of %d (below cap, should be full)",
			len(res.Family), res.FamilySize)
	}
	// Family is sorted by ascending p-value.
	for i := 1; i < len(res.Family); i++ {
		if res.Family[i].PValue < res.Family[i-1].PValue {
			t.Fatal("family not sorted by p-value")
		}
	}
}

func TestProcedure1EmptyFamily(t *testing.T) {
	// Mining threshold above every support: nothing mined, nothing flagged.
	v := genNull(100, uniformFreqs(5, 0.1), 9)
	res, err := Procedure1Ex(v, 2, 99, 0.05, CorrectionBY, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumMined != 0 || res.FamilySize != 0 || len(res.Family) != 0 {
		t.Fatalf("expected empty result, got %+v", res)
	}
}

func TestBudgetSplitWeights(t *testing.T) {
	for _, h := range []int{1, 2, 5, 12} {
		w := SplitEqual.splitWeights(h)
		if len(w) != h {
			t.Fatalf("h=%d: %d weights", h, len(w))
		}
		sum := 0.0
		for _, x := range w {
			if x <= 0 {
				t.Fatalf("non-positive weight %v", x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("h=%d: weights sum to %v", h, sum)
		}
	}
}
