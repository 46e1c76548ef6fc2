package rules

import (
	"math"
	"reflect"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/oracle"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

func toy() *dataset.Vertical {
	// 0 and 1 co-occur strongly; 2 is independent noise.
	tx := [][]uint32{
		{0, 1}, {0, 1}, {0, 1}, {0, 1, 2}, {0, 1},
		{0, 2}, {1}, {2}, {0, 1}, {0, 1},
	}
	return dataset.MustNew(3, tx).Vertical()
}

func TestGenerateBasics(t *testing.T) {
	rs, err := Generate(toy(), Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rules")
	}
	var r01 *Rule
	for i := range rs {
		r := &rs[i]
		// Confidence and lift must be internally consistent.
		wantConf := float64(r.Support) / float64(r.AntecedentSupport)
		if math.Abs(r.Confidence-wantConf) > 1e-12 {
			t.Fatalf("confidence mismatch: %+v", r)
		}
		if r.Antecedent.Equal(mining.Itemset{0}) && r.Consequent.Equal(mining.Itemset{1}) {
			r01 = r
		}
	}
	if r01 == nil {
		t.Fatal("rule {0}=>{1} missing")
	}
	// supp({0,1}) = 7, supp({0}) = 8, f_1 = 8/10.
	if r01.Support != 7 || r01.AntecedentSupport != 8 {
		t.Fatalf("rule {0}=>{1}: %+v", r01)
	}
	if math.Abs(r01.Lift-(7.0/8)/(8.0/10)) > 1e-12 {
		t.Fatalf("lift = %v", r01.Lift)
	}
	wantP := stats.Binomial{N: 8, P: 0.8}.UpperTail(7)
	if math.Abs(r01.PValue-wantP) > 1e-12 {
		t.Fatalf("p-value = %v, want %v", r01.PValue, wantP)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(toy(), Options{MinSupport: 0}); err == nil {
		t.Error("MinSupport 0 accepted")
	}
	if _, err := Generate(toy(), Options{MinSupport: 1, MaxLen: 1}); err == nil {
		t.Error("MaxLen 1 accepted")
	}
}

func TestMinConfidenceFilter(t *testing.T) {
	all, _ := Generate(toy(), Options{MinSupport: 2})
	strict, _ := Generate(toy(), Options{MinSupport: 2, MinConfidence: 0.9})
	if len(strict) >= len(all) {
		t.Fatalf("confidence filter did nothing: %d vs %d", len(strict), len(all))
	}
	for _, r := range strict {
		if r.Confidence < 0.9 {
			t.Fatalf("rule below confidence threshold: %+v", r)
		}
	}
}

func TestRuleCountMatchesSubsetCombinatorics(t *testing.T) {
	// With MinConfidence 0, every frequent itemset of size j yields
	// 2^j - 2 rules.
	v := toy()
	frequent, err := mining.Mine(v, mining.Options{MinSupport: 2, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range frequent {
		if len(r.Items) >= 2 {
			want += (1 << uint(len(r.Items))) - 2
		}
	}
	rs, _ := Generate(v, Options{MinSupport: 2, MaxLen: 3})
	if len(rs) != want {
		t.Fatalf("rules = %d, want %d", len(rs), want)
	}
}

func TestSortedByPValue(t *testing.T) {
	rs, _ := Generate(toy(), Options{MinSupport: 2})
	for i := 1; i < len(rs); i++ {
		if rs[i].PValue < rs[i-1].PValue {
			t.Fatal("rules not sorted by p-value")
		}
	}
}

func TestSelectSignificantOnPlantedVsNull(t *testing.T) {
	// A planted pair must survive selection; pure-noise rules must not.
	r := stats.NewRNG(77)
	freqs := make([]float64, 20)
	for i := range freqs {
		freqs[i] = 0.1
	}
	m := randmodel.IndependentModel{T: 500, Freqs: freqs}
	v := m.Generate(r)
	// Plant {0,1} in 60 transactions.
	d := v.Horizontal()
	tx := make([][]uint32, d.NumTransactions())
	for i := range tx {
		tx[i] = append([]uint32(nil), d.Transaction(i)...)
	}
	for i := 0; i < 60; i++ {
		tx[i] = append(tx[i], 0, 1)
	}
	v = dataset.MustNew(20, tx).Vertical()

	rs, err := Generate(v, Options{MinSupport: 5, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	sig := SelectSignificant(rs, 0.05, 0)
	foundPlanted := false
	for _, rule := range sig {
		if rule.Antecedent.Equal(mining.Itemset{0}) && rule.Consequent.Equal(mining.Itemset{1}) {
			foundPlanted = true
		}
	}
	if !foundPlanted {
		t.Error("planted rule not selected")
	}
	// On the pure null, selection should return (almost) nothing.
	nullV := m.Generate(stats.NewRNG(78))
	nullRules, err := Generate(nullV, Options{MinSupport: 5, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	nullSig := SelectSignificant(nullRules, 0.05, 0)
	if len(nullSig) > 2 {
		t.Errorf("null data yielded %d significant rules", len(nullSig))
	}
}

func TestSelectSignificantMatchesBYMask(t *testing.T) {
	// The selection is the oracle's BY mask in input order, tied p-values
	// and larger hypothesis counts included.
	r := stats.NewRNG(79)
	for trial := 0; trial < 200; trial++ {
		rs := make([]Rule, 1+r.Intn(30))
		for i := range rs {
			rs[i] = Rule{Support: i, PValue: math.Pow(10, -float64(r.Intn(8)))}
			if r.Bernoulli(0.5) {
				rs[i].PValue *= r.Float64()
			}
		}
		pvals := make([]float64, len(rs))
		for i, rule := range rs {
			pvals[i] = rule.PValue
		}
		for _, mTotal := range []float64{0, float64(len(rs)), 1e4} {
			var want []Rule
			for i, rej := range oracle.BenjaminiYekutieli(pvals, 0.05, mTotal) {
				if rej {
					want = append(want, rs[i])
				}
			}
			if got := SelectSignificant(rs, 0.05, mTotal); !reflect.DeepEqual(got, want) {
				t.Fatalf("m = %v, p = %v: selected %v, oracle %v", mTotal, pvals, got, want)
			}
		}
	}
}

func TestSelectSignificantEmpty(t *testing.T) {
	if got := SelectSignificant(nil, 0.05, 0); got != nil {
		t.Error("empty selection should be nil")
	}
}

func TestVisitProperSubsets(t *testing.T) {
	items := mining.Itemset{1, 2, 3}
	count := 0
	seen := map[string]bool{}
	visitProperSubsets(items, func(ant, cons mining.Itemset) {
		count++
		if len(ant) == 0 || len(cons) == 0 {
			t.Fatal("empty side")
		}
		if len(ant)+len(cons) != 3 {
			t.Fatal("sides do not partition")
		}
		key := ant.Key() + "|" + cons.Key()
		if seen[key] {
			t.Fatal("duplicate split")
		}
		seen[key] = true
	})
	if count != 6 { // 2^3 - 2
		t.Fatalf("splits = %d, want 6", count)
	}
}

func TestFisherPTracksBinomialP(t *testing.T) {
	// For rare consequents the Fisher exact and Binomial p-values agree to
	// leading order; both must flag the planted rule and stay in [0,1].
	rs, err := Generate(toy(), Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.FisherP < 0 || r.FisherP > 1 {
			t.Fatalf("FisherP out of range: %+v", r)
		}
	}
	// The strongly associated pair must be near the top under both measures.
	var bestFisher Rule
	first := true
	for _, r := range rs {
		if first || r.FisherP < bestFisher.FisherP {
			bestFisher = r
			first = false
		}
	}
	joint := bestFisher.Antecedent.Union(bestFisher.Consequent)
	if !joint.Equal(mining.Itemset{0, 1}) {
		t.Errorf("most Fisher-significant rule is %v => %v",
			bestFisher.Antecedent, bestFisher.Consequent)
	}
}
