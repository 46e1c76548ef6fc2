package mining

import (
	"fmt"
	"math"
	"reflect"
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
				subsetMineK(v, k, minSup, NewScratch(), func(items Itemset, sup int) {
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
	// Bms1/4 at k = 3 and a low floor: the real data's planted blocks make
	// its 3-subsets outnumber its co-occurring pairs, so it takes the
	// counting kernel, while a null replicate keeps the hash path. At k = 2
	// the rule is the plain budget test on both.
	real, null := bmsSpec(4).GenerateReal(20090629), bmsSpec(4).GenerateNull(20090629)
	if useHashPath(real, 3, 5, NewScratch()) {
		t.Error("Bms1/4 real data at k=3 floor 5 should use the counting kernel")
	}
	if !useHashPath(null, 3, 5, NewScratch()) {
		t.Error("Bms1/4 null replicate at k=3 floor 5 should use the hash path")
	}
	for _, v := range []*dataset.Vertical{real, null, sparse} {
		hist, pairs, _ := NewScratch().lengthHistogram(v, 1)
		if got := subsetEnumerationCost(hist, 2, 1<<62); got != pairs {
			t.Errorf("lengthHistogram counted %d pairs, subsetEnumerationCost %d", pairs, got)
		}
		budget := pairs <= subsetBudget
		for _, floor := range []int{1, hashPathMaxSupport} {
			if got := useHashPath(v, 2, floor, NewScratch()); got != budget {
				t.Errorf("k=2 floor %d: useHashPath = %v, want the budget test's %v", floor, got, budget)
			}
		}
	}
	// One 21-item transaction at k = 20 passes the budget test (21 subsets
	// against 210 pairs), but 20 ranks of 5 bits do not fit a packed word:
	// the counting kernel takes the mine.
	wide := make([]uint32, 21)
	for i := range wide {
		wide[i] = uint32(i)
	}
	wideV := dataset.MustNew(21, [][]uint32{wide, {0, 1}}).Vertical()
	hist, pairs, m := NewScratch().lengthHistogram(wideV, 1)
	if cost := subsetEnumerationCost(hist, 20, pairs); cost != 21 || subsetWordsFit(20, m, cost) {
		t.Fatalf("k=20 over 21 items: cost %d (want 21), words fit %v (want false)", cost, subsetWordsFit(20, m, cost))
	}
	if useHashPath(wideV, 20, 1, NewScratch()) {
		t.Error("k=20 over 21 frequent items should use the counting kernel")
	}
	if diff := streamDiff(intersectAllDFS(wideV, 20, 1), func(emit func(Itemset, int)) {
		VisitKAlgoScratch(wideV, 20, 1, 1, Auto, nil, emit)
	}); diff != "" {
		t.Fatalf("k=20: Auto differs from the DFS: %s", diff)
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
	// Lengths 5, 3, 2 and 10.
	hist := []int64{0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1}
	// C(5,2)+C(3,2)+C(2,2)+C(10,2) = 10+3+1+45 = 59.
	if got := subsetEnumerationCost(hist, 2, 1000); got != 59 {
		t.Fatalf("cost = %d, want 59", got)
	}
	// Limit short-circuits.
	if got := subsetEnumerationCost(hist, 2, 10); got != 11 {
		t.Fatalf("capped cost = %d, want 11", got)
	}
	// Transactions shorter than k contribute nothing.
	if got := subsetEnumerationCost([]int64{0, 1, 1}, 3, 100); got != 0 {
		t.Fatalf("short transactions cost = %d", got)
	}
	// Counts multiply: 1000 transactions of length 4 hold 4000 3-subsets,
	// and the product is capped without overflowing.
	if got := subsetEnumerationCost([]int64{0, 0, 0, 0, 1000}, 3, 1<<62); got != 4000 {
		t.Fatalf("histogram cost = %d, want 4000", got)
	}
	if got := subsetEnumerationCost([]int64{0, 0, 0, 0, 1 << 61}, 3, 1<<62); got != 1<<62+1 {
		t.Fatalf("overflowing cost = %d, want the cap", got)
	}
	// The histogram recovers the lengths from the vertical layout.
	v := dataset.MustNew(12, [][]uint32{{0, 1, 2, 3, 4}, {5, 6, 7}, {8, 9}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {}}).Vertical()
	got, pairs, frequent := NewScratch().lengthHistogram(v, 2)
	if want := []int64{1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1}; !reflect.DeepEqual(got, want) || pairs != 59 || frequent != 10 {
		t.Fatalf("lengthHistogram = %v, %d pairs, %d frequent; want %v, 59, 10", got, pairs, frequent, want)
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

// tableMineK is the hash-table subset counter subsetMineK replaced: it
// enumerates every k-subset of every whole transaction into an
// ItemsetTable and emits those reaching minSupport in table insertion
// order. It is the reference subsetMineK must reproduce, itemsets,
// supports and order.
func tableMineK(v *dataset.Vertical, k, minSupport int) []Result {
	table := NewItemsetTable(k, 0)
	var counts []int32
	idx := make([]uint32, k)
	for _, tr := range v.Horizontal().Transactions() {
		var rec func(pos, start int)
		rec = func(pos, start int) {
			if pos == k {
				id, added := table.Insert(idx)
				if added {
					counts = append(counts, 0)
				}
				counts[id]++
				return
			}
			for i := start; i <= len(tr)-(k-pos); i++ {
				idx[pos] = tr[i]
				rec(pos+1, i+1)
			}
		}
		rec(0, 0)
	}
	var out []Result
	for id := 0; id < table.Len(); id++ {
		if int(counts[id]) >= minSupport {
			out = append(out, Result{Items: Itemset(table.Items(id)).Clone(), Support: int(counts[id])})
		}
	}
	return out
}

// subsetCountFits reports whether subsetMineK can count v's k-subsets at
// the floor: the enumeration stays within subsetBudget and the packed
// words fit.
func subsetCountFits(v *dataset.Vertical, k, floor int) bool {
	hist, _, m := NewScratch().lengthHistogram(v, floor)
	cost := subsetEnumerationCost(hist, k, subsetBudget)
	return cost <= subsetBudget && subsetWordsFit(k, m, cost)
}

// TestSubsetCountMatchesTableOracle pins the sort-based subset counter to
// the hash-table counter it replaces at every k = 2..5 and floor 1..8 (the
// oracle's output at each floor read off one run at floor 1, since table
// insertion order does not depend on the floor): the stream must equal
// the oracle's emissions in value and order. It calls subsetMineK directly,
// below the dispatch, on every case whose enumeration fits; where Auto
// dispatches to the hash path, VisitKAlgoScratch and
// SupportHistogramAlgoScratch must agree as well. One Scratch serves every
// run, so reuse across shapes is covered too.
func TestSubsetCountMatchesTableOracle(t *testing.T) {
	r := stats.NewRNG(1818)
	bmsReal, bmsNull := bmsPair()
	cases := []struct {
		name string
		v    *dataset.Vertical
	}{
		{"bms4-null", bmsSpec(4).GenerateNull(20090629)},
		{"bms4-real", bmsSpec(4).GenerateReal(20090629)},
		{"bms-pair-real", bmsReal},
		{"bms-pair-null", bmsNull},
		{"sparse", sparseRandom(r, 120, 800, 3).Vertical()},
		{"sparse-skewed", plantedDataset(5, 80, 1500, 0.03, []uint32{3, 40, 41, 60}, 7).Vertical()},
		{"dense-tied", duplicatedItems(29, 120).Vertical()},
		{"T=0", dataset.MustNew(4, nil).Vertical()},
		{"one-item", dataset.MustNew(1, [][]uint32{{0}, {0}, {}}).Vertical()},
		{"short-only", dataset.MustNew(5, [][]uint32{{0}, {1, 2}, {}, {3}, {2, 4}}).Vertical()},
		{"one-frequent-item", dataset.MustNew(3, [][]uint32{{0}, {0, 1}, {0}, {0, 2}, {0}}).Vertical()},
		{"floor-edges", dataset.MustNew(6, [][]uint32{
			{0, 1, 3}, {0, 1}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2, 4},
			{0, 2}, {1, 5}, {2}, {0, 3}, {1, 4},
		}).Vertical()},
	}
	s := NewScratch()
	nonEmpty, viaAuto := map[int]int{}, 0
	for _, tc := range cases {
		v := tc.v
		for k := 2; k <= 5; k++ {
			if !subsetCountFits(v, k, 1) {
				continue
			}
			all := tableMineK(v, k, 1)
			for floor := 1; floor <= 8; floor++ {
				name := fmt.Sprintf("%s k=%d floor=%d", tc.name, k, floor)
				want := atFloor(all, floor)
				nonEmpty[k] += min(len(want), 1)
				if diff := streamDiff(want, func(emit func(Itemset, int)) { subsetMineK(v, k, floor, s, emit) }); diff != "" {
					t.Fatalf("%s: stream differs from the table oracle: %s", name, diff)
				}
				if !useHashPath(v, k, floor, s) {
					continue
				}
				if len(want) > 0 {
					viaAuto++
				}
				if diff := streamDiff(want, func(emit func(Itemset, int)) {
					VisitKAlgoScratch(v, k, floor, 2, Auto, s, emit)
				}); diff != "" {
					t.Fatalf("%s: VisitKAlgoScratch differs from the table oracle: %s", name, diff)
				}
				if hist, wantHist := SupportHistogramAlgoScratch(v, k, floor, 1, Auto, s), histogramOf(v, want); !reflect.DeepEqual(hist, wantHist) {
					t.Fatalf("%s: SupportHistogramAlgoScratch %v, oracle histogram %v", name, hist, wantHist)
				}
			}
		}
	}
	for k := 2; k <= 5; k++ {
		if nonEmpty[k] < 20 {
			t.Fatalf("k=%d: table is nearly vacuous: %d non-empty cases", k, nonEmpty[k])
		}
	}
	if viaAuto < 40 {
		t.Fatalf("only %d non-empty cases dispatch to the hash path under Auto", viaAuto)
	}
}

// FuzzSubsetCount checks the sort-based subset counter against the
// hash-table oracle on small arbitrary datasets at k = 2..5 and floors
// 1..8, directly and through Auto's dispatch.
func FuzzSubsetCount(f *testing.F) {
	f.Add([]byte{6, 1, 2, 3, 0x84, 1, 2, 0x83, 2, 3, 4, 0x81}, uint8(1), uint8(0))
	f.Add([]byte{0, 0, 1, 0x80, 1, 0x80, 0, 1, 0x81}, uint8(0), uint8(1))
	f.Add([]byte{15, 1, 2, 3, 4, 5, 6, 7, 0x88, 1, 2, 3, 4, 5, 6, 0x87, 1, 2, 3, 4, 5, 0x86}, uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kb, floorb uint8) {
		if len(data) > 512 {
			return
		}
		v := fuzzVertical(data)
		k, floor := 2+int(kb%4), 1+int(floorb%8)
		if !subsetCountFits(v, k, floor) {
			return
		}
		want := tableMineK(v, k, floor)
		if diff := streamDiff(want, func(emit func(Itemset, int)) { subsetMineK(v, k, floor, NewScratch(), emit) }); diff != "" {
			t.Fatalf("k=%d floor=%d: stream differs from the table oracle %v: %s", k, floor, want, diff)
		}
		if useHashPath(v, k, floor, NewScratch()) {
			if diff := streamDiff(want, func(emit func(Itemset, int)) {
				VisitKAlgoScratch(v, k, floor, 1, Auto, nil, emit)
			}); diff != "" {
				t.Fatalf("k=%d floor=%d: Auto differs from the table oracle %v: %s", k, floor, want, diff)
			}
		}
	})
}
