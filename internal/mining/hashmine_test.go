package mining

import (
	"math"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// poissonLen draws a Poisson(lambda) transaction length by Knuth's product
// method: count uniforms until their running product drops to exp(-lambda).
// Exact for the small means the sparse test datasets use.
func poissonLen(r *stats.RNG, lambda float64) int {
	limit := math.Exp(-lambda)
	k, prod := 0, 1.0
	for {
		prod *= r.Float64()
		if prod <= limit {
			return k
		}
		k++
	}
}

// sparseRandom builds short-transaction datasets that exercise the hash path.
func sparseRandom(r *stats.RNG, n, t int, meanLen float64) *dataset.Dataset {
	tx := make([][]uint32, t)
	for i := range tx {
		ln := poissonLen(r, meanLen)
		seen := map[int]bool{}
		for j := 0; j < ln; j++ {
			it := r.Intn(n)
			if !seen[it] {
				seen[it] = true
				tx[i] = append(tx[i], uint32(it))
			}
		}
	}
	return dataset.MustNew(n, tx)
}

func TestHashMineAgreesWithEclat(t *testing.T) {
	r := stats.NewRNG(4242)
	for trial := 0; trial < 15; trial++ {
		d := sparseRandom(r, 30, 200, 3)
		v := d.Vertical()
		for k := 2; k <= 4; k++ {
			for _, minSup := range []int{1, 2, 3} {
				want := map[string]int{}
				newEclatShards(v, k, minSup, 1, false, NewScratch()).stream(func(items Itemset, sup int) {
					want[items.Key()] = sup
				})
				got := map[string]int{}
				hashMineK(v, k, minSup, NewScratch(), func(items Itemset, sup int) {
					got[items.Key()] = sup
				})
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d s=%d: hash %d vs eclat %d itemsets",
						trial, k, minSup, len(got), len(want))
				}
				for key, sup := range want {
					if got[key] != sup {
						t.Fatalf("trial %d k=%d s=%d: support mismatch for %v: %d vs %d",
							trial, k, minSup, KeyToItemset(key), got[key], sup)
					}
				}
			}
		}
	}
}

func TestVisitKDispatch(t *testing.T) {
	r := stats.NewRNG(11)
	// Sparse data at low threshold must select the hash path.
	sparse := sparseRandom(r, 50, 500, 2).Vertical()
	if !useHashPath(sparse, 3, 1, NewScratch()) {
		t.Error("sparse low-threshold input should use hash path")
	}
	// High thresholds must not.
	if useHashPath(sparse, 3, 100, NewScratch()) {
		t.Error("high threshold should use Eclat")
	}
	// k = 1 is answered directly from item supports.
	count := 0
	VisitKAlgoScratch(sparse, 1, 3, 1, Auto, nil, func(items Itemset, sup int) {
		if len(items) != 1 || sup < 3 {
			t.Fatalf("bad k=1 emission: %v %d", items, sup)
		}
		count++
	})
	want := 0
	for _, l := range sparse.Tids {
		if len(l) >= 3 {
			want++
		}
	}
	if count != want {
		t.Fatalf("k=1 count %d, want %d", count, want)
	}
}

func TestVisitKPanicsOnBadArgs(t *testing.T) {
	v := dataset.MustNew(2, [][]uint32{{0, 1}}).Vertical()
	for _, bad := range [][2]int{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("VisitKAlgoScratch(%v) should panic", bad)
				}
			}()
			VisitKAlgoScratch(v, bad[0], bad[1], 1, Auto, nil, func(Itemset, int) {})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SupportHistogramAlgoScratch(%v) should panic", bad)
				}
			}()
			SupportHistogramAlgoScratch(v, bad[0], bad[1], 1, Auto, nil)
		}()
	}
}

func TestSubsetEnumerationCost(t *testing.T) {
	lens := []int{5, 3, 2, 10}
	// C(5,2)+C(3,2)+C(2,2)+C(10,2) = 10+3+1+45 = 59.
	if got := subsetEnumerationCost(lens, 2, 1000); got != 59 {
		t.Fatalf("cost = %d, want 59", got)
	}
	// Limit short-circuits.
	if got := subsetEnumerationCost(lens, 2, 10); got != 11 {
		t.Fatalf("capped cost = %d, want 11", got)
	}
	// Transactions shorter than k contribute nothing.
	if got := subsetEnumerationCost([]int{1, 2}, 3, 100); got != 0 {
		t.Fatalf("short transactions cost = %d", got)
	}
}

// TestMineKMatchesEclatOnDense: on dense data Auto keeps the tid-list DFS
// (bitsets are never picked automatically); its materialization must equal
// the forced-bitset run as a set.
func TestMineKMatchesEclatOnDense(t *testing.T) {
	r := stats.NewRNG(5)
	d := randomDataset(r, 8, 40)
	a, err := Mine(d, Options{K: 2, MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(d, Options{K: 2, MinSupport: 2, Algorithm: EclatBits})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !resultsEqual(a, b) {
		t.Fatalf("Auto (%d results) disagrees with EclatBits (%d)", len(a), len(b))
	}
}
