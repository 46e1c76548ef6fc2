package mining

import (
	"fmt"
	"reflect"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

// dfsPairs is the k = 2 tid-list DFS run subtree by subtree: the reference
// the pair-count kernel must reproduce, values and order.
func dfsPairs(v *dataset.Vertical, minSupport int) []Result {
	s := NewScratch()
	items := frequentItems(v, minSupport)
	return collectScratch(func(emit func(Itemset, int)) {
		for first := 0; first+1 < len(items); first++ {
			eclatKTidListSubtree(v, items, 2, minSupport, first, s, emit)
		}
	})
}

// duplicatedItems builds dense data whose supports tie by construction:
// items 2i and 2i+1 occur in exactly the transactions item i of a random
// base dataset does, so every support and pair support comes in equal
// pairs and the eclat order falls back on item ids.
func duplicatedItems(seed uint64) *dataset.Dataset {
	base := plantedDataset(seed, 12, 300, 0.35, []uint32{1, 4}, 5)
	tx := make([][]uint32, base.NumTransactions())
	for i, tr := range base.Transactions() {
		for _, it := range tr {
			tx[i] = append(tx[i], 2*it, 2*it+1)
		}
	}
	return dataset.MustNew(24, tx)
}

// TestPairCountMatchesTidListDFS pins the k = 2 pair-count kernel to the
// tid-list DFS it replaces: the stream must equal the DFS's emissions in
// value and order, and the count sink must equal their histogram, at every
// worker count. It calls newEclatShards directly, below the hash-path
// dispatch, so floors <= 8 reach the kernel too.
func TestPairCountMatchesTidListDFS(t *testing.T) {
	r := stats.NewRNG(1313)
	// Transactions holding one frequent item next to infrequent ones, and
	// pairs {0,1} at support 5 and {0,2} at support 4.
	floorEdges := dataset.MustNew(6, [][]uint32{
		{0, 1, 3}, {0, 1}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2, 4},
		{0, 2}, {1, 5}, {2}, {0, 3}, {1, 4},
	})
	cases := []struct {
		name string
		d    *dataset.Dataset
	}{
		{"sparse", sparseRandom(r, 120, 800, 3)},
		{"sparse-skewed", plantedDataset(5, 80, 1500, 0.03, []uint32{3, 40}, 7)},
		{"dense-tied", duplicatedItems(29)},
		{"T=0", dataset.MustNew(4, nil)},
		{"one-frequent-item", dataset.MustNew(3, [][]uint32{{0}, {0, 1}, {0}, {0, 2}, {0}})},
		{"floor-edges", floorEdges},
	}
	nonEmpty := 0
	for _, tc := range cases {
		v := tc.d.Vertical()
		for _, floor := range []int{1, 4, 5, 9, 40} {
			want := dfsPairs(v, floor)
			nonEmpty += min(len(want), 1)
			wantHist := histogramOf(v, want)
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s floor=%d workers=%d", tc.name, floor, workers)
				got := collectScratch(func(emit func(Itemset, int)) {
					newEclatShards(v, 2, floor, workers, false, NewScratch()).stream(emit)
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: stream %v, DFS %v", name, got, want)
				}
				hist := make([]int64, v.MaxItemSupport()+1)
				newEclatShards(v, 2, floor, workers, false, NewScratch()).count(hist)
				if !reflect.DeepEqual(hist, wantHist) {
					t.Fatalf("%s: count %v, DFS histogram %v", name, hist, wantHist)
				}
			}
		}
	}
	if nonEmpty < 10 {
		t.Fatalf("table is nearly vacuous: %d non-empty cases", nonEmpty)
	}
	// At floor 5 the kernel must keep the pair at the floor and drop the
	// one below it.
	got := collectScratch(func(emit func(Itemset, int)) {
		newEclatShards(floorEdges.Vertical(), 2, 5, 1, false, NewScratch()).stream(emit)
	})
	if want := []Result{{Items: Itemset{0, 1}, Support: 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("floor-edges at floor 5: %v, want %v", got, want)
	}
}

// TestReplicateLoopZeroAllocs guards the replicate engine's steady state:
// once warm, generating a null replicate into a pooled Vertical and mining
// it at k = 2 on a pooled Scratch allocate nothing.
func TestReplicateLoopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	freqs := make([]float64, 60)
	for i := range freqs {
		freqs[i] = 0.05 + 0.25*float64(i)/float64(len(freqs))
	}
	r := stats.NewRNG(8)

	t.Run("mine", func(t *testing.T) {
		// Two warm-up replicates, at 20000 and 21000 transactions, make the
		// pooled buffers regrow once. Then every replicate is 300
		// transactions larger than the last, ~3150 more occurrences: a
		// pair index regrown to the exact size it needs would reallocate
		// its ranks (beyond one 8 KiB page) at every one of them, while
		// append's headroom covers them all.
		var reps []*dataset.Vertical
		for _, T := range []int{20000, 21000, 21300, 21600, 21900, 22200, 22500, 22800, 23100, 23400, 23700, 24000} {
			reps = append(reps, randmodel.IndependentModel{T: T, Freqs: freqs}.Generate(r))
		}
		s := NewScratch()
		mined := 0
		emit := func(Itemset, int) { mined++ }
		for _, v := range reps[:2] {
			VisitKAlgoScratch(v, 2, 20, 1, Auto, s, emit)
		}
		next := 2
		allocs := testing.AllocsPerRun(len(reps)-next-1, func() {
			VisitKAlgoScratch(reps[next], 2, 20, 1, Auto, s, emit)
			next++
		})
		if allocs != 0 {
			t.Errorf("VisitKAlgoScratch(k=2) on a warm Scratch: %v allocations per replicate, want 0", allocs)
		}
		if mined == 0 {
			t.Fatal("the replicates mined nothing; the test is vacuous")
		}
	})

	t.Run("generate", func(t *testing.T) {
		m := randmodel.IndependentModel{T: 2000, Freqs: freqs}
		// Warm every column to full height, so replicate-to-replicate
		// column growth cannot allocate and only per-column overhead would.
		ones := make([]float64, len(freqs))
		for i := range ones {
			ones[i] = 1
		}
		v := &dataset.Vertical{}
		randmodel.IndependentModel{T: m.T, Freqs: ones}.GenerateInto(r, v)
		for _, m := range []randmodel.IndependentModel{m, m.Prepare()} {
			allocs := testing.AllocsPerRun(10, func() { m.GenerateInto(r, v) })
			if allocs != 0 {
				t.Errorf("IndependentModel.GenerateInto on a warm Vertical: %v allocations per replicate, want 0", allocs)
			}
		}
	})
}
