package mining

import (
	"reflect"
	"testing"

	"sigfim/internal/stats"
)

// collectScratch materializes a streaming mine into owned Results.
func collectScratch(run func(emit func(Itemset, int))) []Result {
	var out []Result
	run(func(is Itemset, sup int) {
		out = append(out, Result{Items: is.Clone(), Support: sup})
	})
	return out
}

// TestScratchReuseAcrossDatasets runs two datasets of different shapes
// through ONE Scratch — the replicate-engine usage pattern — and checks every
// kernel against a fresh-scratch run. A reused Scratch must never leak state
// (stale items, oversized buffers, old FP-trees, a previous table) from one
// dataset into the next.
func TestScratchReuseAcrossDatasets(t *testing.T) {
	r := stats.NewRNG(2024)
	// Dataset A: dense-ish, 40 items. Dataset B: sparser and wider, 70 items,
	// mined at a lower threshold so every code path re-sizes its buffers.
	dA := randomDataset(r, 40, 300)
	dB := sparseRandom(r, 70, 500, 3)
	vA, vB := dA.Vertical(), dB.Vertical()

	shared := NewScratch()
	type run struct {
		name string
		mine func(s *Scratch) interface{}
	}
	runs := []run{
		{"eclatTidList/A", func(s *Scratch) interface{} {
			return collectScratch(func(emit func(Itemset, int)) { newEclatShards(vA, 2, 3, 1, false, s).stream(emit) })
		}},
		{"eclatTidList/B", func(s *Scratch) interface{} {
			return collectScratch(func(emit func(Itemset, int)) { newEclatShards(vB, 3, 2, 1, false, s).stream(emit) })
		}},
		{"eclatBitset/A", func(s *Scratch) interface{} {
			return collectScratch(func(emit func(Itemset, int)) { newEclatShards(vA, 2, 3, 1, true, s).stream(emit) })
		}},
		{"eclatBitset/B", func(s *Scratch) interface{} {
			return collectScratch(func(emit func(Itemset, int)) { newEclatShards(vB, 3, 2, 1, true, s).stream(emit) })
		}},
		{"hashMine/B", func(s *Scratch) interface{} {
			return collectScratch(func(emit func(Itemset, int)) { subsetMineK(vB, 2, 1, s, emit) })
		}},
		{"hashMine/A", func(s *Scratch) interface{} {
			return collectScratch(func(emit func(Itemset, int)) { subsetMineK(vA, 3, 2, s, emit) })
		}},
		{"fpGrowthVisitK/A", func(s *Scratch) interface{} {
			return collectScratch(func(emit func(Itemset, int)) { fpGrowthVisitK(dA, 2, 3, 1, s, emit) })
		}},
		{"fpGrowthVisitK/B", func(s *Scratch) interface{} {
			return collectScratch(func(emit func(Itemset, int)) { fpGrowthVisitK(dB, 3, 2, 1, s, emit) })
		}},
		{"histogramAuto/A", func(s *Scratch) interface{} {
			return SupportHistogramAlgoScratch(vA, 2, 3, 1, Auto, s)
		}},
		{"histogramBits/B", func(s *Scratch) interface{} {
			return SupportHistogramAlgoScratch(vB, 2, 2, 1, EclatBits, s)
		}},
		{"histogramFP/A", func(s *Scratch) interface{} {
			return SupportHistogramAlgoScratch(vA, 3, 2, 1, FPGrowth, s)
		}},
	}
	// Interleave the datasets twice so the scratch crosses shapes repeatedly.
	for round := 0; round < 2; round++ {
		for _, rn := range runs {
			got := rn.mine(shared)
			want := rn.mine(NewScratch())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: reused scratch output differs from fresh scratch", round, rn.name)
			}
		}
	}
}

// TestVisitKAlgoScratchMatchesDispatcher pins the stream over one shared,
// reused Scratch to the stream over a fresh one for every algorithm and
// several worker counts: same values AND same order.
func TestVisitKAlgoScratchMatchesDispatcher(t *testing.T) {
	r := stats.NewRNG(77)
	v := randomDataset(r, 30, 400).Vertical()
	s := NewScratch()
	for _, algo := range allAlgorithms {
		for _, workers := range []int{1, 4} {
			want := collect(v, 2, 2, workers, algo, nil)
			// Run twice with the same shared scratch: both the first (cold)
			// and second (warm) pass must match.
			for pass := 0; pass < 2; pass++ {
				if got := collect(v, 2, 2, workers, algo, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("algo %v workers %d pass %d: scratch dispatcher differs", algo, workers, pass)
				}
			}
		}
	}
}

// TestItemsetTable exercises the string-free itemset table directly: dense
// insertion-order ids, and ids that survive growth, from the initial slots
// and from a capacity hint.
func TestItemsetTable(t *testing.T) {
	for _, capHint := range []int{0, 100} {
		testItemsetTable(t, NewItemsetTable(3, capHint))
	}
}

func testItemsetTable(t *testing.T, tab *ItemsetTable) {
	r := stats.NewRNG(5)
	var tuples [][]uint32
	seen := map[string]int{}
	for i := 0; i < 5000; i++ {
		tup := []uint32{uint32(r.Intn(40)), uint32(r.Intn(40)), uint32(r.Intn(40))}
		id, added := tab.Insert(tup)
		key := Itemset(tup).Key()
		if prev, ok := seen[key]; ok {
			if added || id != prev {
				t.Fatalf("duplicate %v: got id %d added %v, want id %d", tup, id, added, prev)
			}
		} else {
			if !added || id != len(tuples) {
				t.Fatalf("new %v: got id %d added %v, want id %d", tup, id, added, len(tuples))
			}
			seen[key] = id
			tuples = append(tuples, append([]uint32(nil), tup...))
		}
	}
	if tab.Len() != len(tuples) {
		t.Fatalf("Len %d, want %d", tab.Len(), len(tuples))
	}
	// After every growth, each tuple still finds its id and stored items.
	for id, tup := range tuples {
		if got, added := tab.Insert(tup); added || got != id {
			t.Fatalf("re-Insert(%v) = %d added %v, want %d", tup, got, added, id)
		}
		if !Itemset(tab.Items(id)).Equal(Itemset(tup)) {
			t.Fatalf("Items(%d) = %v, want %v", id, tab.Items(id), tup)
		}
	}
	if id, added := tab.Insert([]uint32{99, 99, 99}); !added || id != len(tuples) {
		t.Fatalf("absent tuple: id %d added %v, want a new id %d", id, added, len(tuples))
	}
}
