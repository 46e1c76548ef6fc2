package mining

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// bruteMineK enumerates all k-subsets of the item universe and counts
// supports by scanning; the ground truth for the algorithm tests.
func bruteMineK(d *dataset.Dataset, k, minSupport int) []Result {
	n := d.NumItems()
	var out []Result
	idx := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			items := make(Itemset, k)
			for i, v := range idx {
				items[i] = uint32(v)
			}
			sup := d.Support(items)
			if sup >= minSupport {
				out = append(out, Result{Items: items, Support: sup})
			}
			return
		}
		for i := start; i < n; i++ {
			idx[pos] = i
			rec(pos+1, i+1)
		}
	}
	if k >= 1 && k <= n {
		rec(0, 0)
	}
	return out
}

// randomDataset builds a small random dataset for property tests.
func randomDataset(r *stats.RNG, maxItems, maxT int) *dataset.Dataset {
	n := 2 + r.Intn(maxItems-1)
	t := 1 + r.Intn(maxT)
	tx := make([][]uint32, t)
	p := 0.1 + 0.5*r.Float64()
	for i := range tx {
		for it := 0; it < n; it++ {
			if r.Bernoulli(p) {
				tx[i] = append(tx[i], uint32(it))
			}
		}
	}
	return dataset.MustNew(n, tx)
}

func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	sortByItems(a)
	sortByItems(b)
	for i := range a {
		if !a[i].Items.Equal(b[i].Items) || a[i].Support != b[i].Support {
			return false
		}
	}
	return true
}

// mustMine is Mine for options known to be valid.
func mustMine(t *testing.T, v *dataset.Vertical, opts Options) []Result {
	t.Helper()
	rs, err := Mine(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// allAlgorithms lists every Algorithm value.
var allAlgorithms = []Algorithm{Auto, EclatTids, EclatBits, Apriori, FPGrowth}

// collect materializes one stream into owned Results, in emission order.
func collect(v *dataset.Vertical, k, minSup, workers int, algo Algorithm, s *Scratch) []Result {
	var out []Result
	VisitKAlgoScratch(v, k, minSup, workers, algo, s, func(is Itemset, sup int) {
		out = append(out, Result{Items: is.Clone(), Support: sup})
	})
	return out
}

// histogramOf is the support histogram of a result list, sized like
// SupportHistogramAlgoScratch's.
func histogramOf(v *dataset.Vertical, rs []Result) []int64 {
	hist := make([]int64, v.MaxItemSupport()+1)
	for _, r := range rs {
		hist[r.Support]++
	}
	return hist
}

// TestAllAlgorithmsAgreeWithBruteForce is the one table over the three entry
// points: every algorithm × workers {1, 4} × k {1, 2, 3} × floors on both
// sides of hashPathMaxSupport, on dense and sparse random datasets. Sorted
// Mine, the sorted stream and brute force must agree; the histogram must be
// the stream's histogram; and each algorithm's stream order must not depend
// on the worker count.
func TestAllAlgorithmsAgreeWithBruteForce(t *testing.T) {
	r := stats.NewRNG(2025)
	var datasets []*dataset.Dataset
	for trial := 0; trial < 8; trial++ {
		datasets = append(datasets, randomDataset(r, 12, 60), sparseRandom(r, 14, 120, 4))
	}
	floors := []int{1, hashPathMaxSupport, hashPathMaxSupport + 1, 20}
	hashPaths, dfsPaths := 0, 0
	for trial, d := range datasets {
		v := d.Vertical()
		for k := 1; k <= 3; k++ {
			for _, minSup := range floors {
				if useHashPath(v, k, minSup, NewScratch()) {
					hashPaths++
				} else if k > 1 {
					dfsPaths++
				}
				want := bruteMineK(d, k, minSup)
				for _, algo := range allAlgorithms {
					var serial []Result
					for _, workers := range []int{1, 4} {
						name := fmt.Sprintf("trial %d k=%d s=%d %v workers=%d", trial, k, minSup, algo, workers)
						stream := collect(v, k, minSup, workers, algo, NewScratch())
						if workers == 1 {
							serial = stream
						} else if !reflect.DeepEqual(stream, serial) {
							t.Fatalf("%s: stream order differs from workers=1", name)
						}
						hist := SupportHistogramAlgoScratch(v, k, minSup, workers, algo, nil)
						if !reflect.DeepEqual(hist, histogramOf(v, stream)) {
							t.Fatalf("%s: histogram differs from the stream's", name)
						}
						mined, err := Mine(d.Vertical(), Options{K: k, MinSupport: minSup, Algorithm: algo, Workers: workers})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !resultsEqual(mined, append([]Result(nil), want...)) {
							t.Fatalf("%s: Mine has %d results, brute force %d", name, len(mined), len(want))
						}
						if !resultsEqual(append([]Result(nil), stream...), append([]Result(nil), want...)) {
							t.Fatalf("%s: stream has %d results, brute force %d", name, len(stream), len(want))
						}
					}
				}
			}
		}
	}
	if hashPaths == 0 || dfsPaths == 0 {
		t.Fatalf("table is vacuous: %d hash-path cases, %d DFS cases", hashPaths, dfsPaths)
	}
}

func TestAllSizesAgree(t *testing.T) {
	r := stats.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(r, 8, 30)
		for _, minSup := range []int{1, 3} {
			var want []Result
			for _, algo := range allAlgorithms {
				got, err := Mine(d.Vertical(), Options{MinSupport: minSup, Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !resultsEqual(got, want) {
					t.Fatalf("trial %d minSup=%d: %v has %d results, auto %d", trial, minSup, algo, len(got), len(want))
				}
			}
		}
	}
}

func TestMaxLenCap(t *testing.T) {
	r := stats.NewRNG(31)
	d := randomDataset(r, 8, 30)
	for _, maxLen := range []int{1, 2, 3} {
		for _, algo := range allAlgorithms {
			rs, err := Mine(d.Vertical(), Options{MinSupport: 2, MaxLen: maxLen, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range rs {
				if len(res.Items) > maxLen {
					t.Fatalf("%v maxLen=%d violated by %v", algo, maxLen, res.Items)
				}
			}
		}
	}
}

func TestMineFacade(t *testing.T) {
	r := stats.NewRNG(99)
	d := randomDataset(r, 8, 40)
	v := d.Vertical()
	want := bruteMineK(d, 2, 3)
	for _, algo := range allAlgorithms {
		got, err := Mine(v, Options{K: 2, MinSupport: 3, Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !resultsEqual(got, append([]Result(nil), want...)) {
			t.Fatalf("%v disagrees with brute force", algo)
		}
	}
	if _, err := Mine(v, Options{K: 2, MinSupport: 0}); err == nil {
		t.Error("MinSupport 0 accepted")
	}
	if _, err := Mine(v, Options{K: -1, MinSupport: 1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := Mine(v, Options{K: 1, MinSupport: 1, Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestCountKMatchesMine pins counting as the public CountK does it — the
// histogram's total — to the materialized family size.
func TestCountKMatchesMine(t *testing.T) {
	r := stats.NewRNG(123)
	for trial := 0; trial < 20; trial++ {
		v := randomDataset(r, 9, 40).Vertical()
		for k := 1; k <= 3; k++ {
			for _, s := range []int{1, 2, 4} {
				rs, err := Mine(v, Options{K: k, MinSupport: s})
				if err != nil {
					t.Fatal(err)
				}
				if got := CumulativeQ(SupportHistogramAlgoScratch(v, k, s, 0, Auto, nil))[0]; got != int64(len(rs)) {
					t.Fatalf("count(k=%d,s=%d) = %d, want %d", k, s, got, len(rs))
				}
			}
		}
	}
}

// TestSupportHistogram checks Procedure 2's use of one histogram pass: Q
// read off CumulativeQ at every threshold above the floor must match mining
// at that threshold.
func TestSupportHistogram(t *testing.T) {
	r := stats.NewRNG(321)
	v := randomDataset(r, 8, 50).Vertical()
	k, minSup := 2, 1
	hist := SupportHistogramAlgoScratch(v, k, minSup, 1, Auto, nil)
	if len(hist) != v.MaxItemSupport()+1 {
		t.Fatalf("len(hist) = %d, want %d", len(hist), v.MaxItemSupport()+1)
	}
	q := CumulativeQ(hist)
	for s := minSup; s < len(hist); s++ {
		rs, err := Mine(v, Options{K: k, MinSupport: s})
		if err != nil {
			t.Fatal(err)
		}
		if q[s] != int64(len(rs)) {
			t.Fatalf("CumulativeQ[%d] = %d, want %d", s, q[s], len(rs))
		}
	}
}

func TestItemsetOps(t *testing.T) {
	s := NewItemset(3, 1, 2, 1)
	if !s.Equal(Itemset{1, 2, 3}) {
		t.Fatalf("NewItemset = %v", s)
	}
	if !s.Contains(2) || s.Contains(4) {
		t.Error("Contains")
	}
	if !(Itemset{1, 3}).SubsetOf(s) || (Itemset{1, 4}).SubsetOf(s) {
		t.Error("SubsetOf")
	}
	if !s.Intersects(Itemset{3, 9}) || s.Intersects(Itemset{4, 9}) {
		t.Error("Intersects")
	}
	u := (Itemset{1, 3}).Union(Itemset{2, 3, 5})
	if !u.Equal(Itemset{1, 2, 3, 5}) {
		t.Fatalf("Union = %v", u)
	}
	if got := KeyToItemset(s.Key()); !got.Equal(s) {
		t.Fatalf("Key round trip = %v", got)
	}
}

func TestItemsetKeyRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		s := NewItemset(raw...)
		return KeyToItemset(s.Key()).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortResultsDeterministic(t *testing.T) {
	rs := []Result{
		{Items: Itemset{2}, Support: 5},
		{Items: Itemset{1}, Support: 5},
		{Items: Itemset{0}, Support: 7},
		{Items: Itemset{1, 2}, Support: 5},
	}
	SortResults(rs)
	if rs[0].Support != 7 || !rs[1].Items.Equal(Itemset{1}) || !rs[2].Items.Equal(Itemset{1, 2}) {
		t.Fatalf("SortResults order = %v", rs)
	}
}
