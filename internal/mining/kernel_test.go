package mining

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sigfim/internal/bitset"
	"sigfim/internal/dataset"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
	"sigfim/internal/synth"
)

// intersectAllDFS is the fixed-k (k >= 2) tid-list Eclat that intersects
// every (prefix, later item) candidate, subtree by subtree: the reference
// the counting kernel must reproduce, itemsets, supports and order.
func intersectAllDFS(v *dataset.Vertical, k, minSupport int) []Result {
	items := frequentItems(v, minSupport)
	var out []Result
	prefix := make(Itemset, 0, k)
	bufs := make([]bitset.TidList, k)
	var rec func(start int, tids bitset.TidList)
	rec = func(start int, tids bitset.TidList) {
		depth := len(prefix)
		for i := start; i <= len(items)-(k-depth); i++ {
			next := bitset.IntersectTo(bufs[depth][:0], tids, v.Tids[items[i]])
			bufs[depth] = next
			if len(next) < minSupport {
				continue
			}
			prefix = append(prefix, items[i])
			if depth+1 == k {
				sorted := prefix.Clone()
				sortSmall(sorted)
				out = append(out, Result{Items: sorted, Support: len(next)})
			} else {
				rec(i+1, next)
			}
			prefix = prefix[:depth]
		}
	}
	for first := 0; first+k <= len(items); first++ {
		prefix = append(prefix[:0], items[first])
		rec(first+1, v.Tids[items[first]])
	}
	return out
}

// duplicatedItems builds dense data whose supports tie by construction:
// items 2i and 2i+1 occur in exactly the transactions item i of a random
// base dataset does, so every support and pair support comes in equal
// pairs and the eclat order falls back on item ids.
func duplicatedItems(seed uint64, t int) *dataset.Dataset {
	base := plantedDataset(seed, 12, t, 0.35, []uint32{1, 4}, 5)
	tx := make([][]uint32, base.NumTransactions())
	for i, tr := range base.Transactions() {
		for _, it := range tr {
			tx[i] = append(tx[i], 2*it, 2*it+1)
		}
	}
	return dataset.MustNew(24, tx)
}

// bmsSpec returns the Bms1 profile at 1/scale of its transactions.
func bmsSpec(scale int) synth.Spec {
	spec, ok := synth.ByName("Bms1")
	if !ok {
		panic("synth: no Bms1 profile")
	}
	return spec.Scale(scale)
}

// bmsPair is a Bms1-shaped real and null pair small enough for the oracle
// at k = 5 and floor 1: Bms1's power-law null and block layout at 1/32 of
// its transactions, with the 154-item block cut to 14 items in 3
// transactions (at full width its 5-subsets alone number 7e8).
func bmsPair() (real, null *dataset.Vertical) {
	spec := bmsSpec(32)
	spec.Blocks = slices.Clone(spec.Blocks)
	last := &spec.Blocks[len(spec.Blocks)-1]
	last.Size, last.CountFrac = 14, 3.5/float64(spec.T)
	return spec.GenerateReal(41), spec.GenerateNull(41)
}

// TestCountKernelMatchesTidListDFS pins the counting kernel to the
// intersect-all DFS it replaces at every k = 2..5 and floor 1..12 (the
// DFS's output at each floor read off one run at floor 1; FuzzCountKernel
// runs it at the kernel's own floor): the
// stream must equal the DFS's emissions in value and order, and the count
// sink must equal their histogram, at every worker count. It calls
// newEclatShards directly, below the hash-path dispatch, so the floors the
// hash path would take reach the kernel too; where Auto dispatches to the
// kernel, VisitKAlgoScratch and SupportHistogramAlgoScratch must agree as
// well.
func TestCountKernelMatchesTidListDFS(t *testing.T) {
	r := stats.NewRNG(1313)
	// Transactions holding one frequent item next to infrequent ones, and
	// pairs {0,1} at support 5 and {0,2} at support 4.
	floorEdges := dataset.MustNew(6, [][]uint32{
		{0, 1, 3}, {0, 1}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2, 4},
		{0, 2}, {1, 5}, {2}, {0, 3}, {1, 4},
	})
	bmsReal, bmsNull := bmsPair()
	cases := []struct {
		name string
		v    *dataset.Vertical
	}{
		{"sparse", sparseRandom(r, 120, 800, 3).Vertical()},
		{"sparse-skewed", plantedDataset(5, 80, 1500, 0.03, []uint32{3, 40, 41, 60}, 7).Vertical()},
		{"dense-tied", duplicatedItems(29, 120).Vertical()},
		{"bms-real", bmsReal},
		{"bms-null", bmsNull},
		{"T=0", dataset.MustNew(4, nil).Vertical()},
		{"one-frequent-item", dataset.MustNew(3, [][]uint32{{0}, {0, 1}, {0}, {0, 2}, {0}}).Vertical()},
		{"floor-edges", floorEdges.Vertical()},
	}
	nonEmpty, viaAuto := map[int]int{}, 0
	for _, tc := range cases {
		v := tc.v
		for k := 2; k <= 5; k++ {
			all := intersectAllDFS(v, k, 1)
			for floor := 1; floor <= 12; floor++ {
				want := atFloor(all, floor)
				nonEmpty[k] += min(len(want), 1)
				wantHist := histogramOf(v, want)
				auto := !useHashPath(v, k, floor, NewScratch())
				if auto && len(want) > 0 {
					viaAuto++
				}
				for _, workers := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s k=%d floor=%d workers=%d", tc.name, k, floor, workers)
					if diff := streamDiff(want, newEclatShards(v, k, floor, workers, NewScratch()).stream); diff != "" {
						t.Fatalf("%s: stream differs from the DFS: %s", name, diff)
					}
					hist := make([]int64, v.MaxItemSupport()+1)
					newEclatShards(v, k, floor, workers, NewScratch()).count(hist)
					if !reflect.DeepEqual(hist, wantHist) {
						t.Fatalf("%s: count %v, DFS histogram %v", name, hist, wantHist)
					}
					if !auto {
						continue
					}
					if diff := streamDiff(want, func(emit func(Itemset, int)) {
						VisitKAlgoScratch(v, k, floor, workers, Auto, nil, emit)
					}); diff != "" {
						t.Fatalf("%s: VisitKAlgoScratch differs from the DFS: %s", name, diff)
					}
					if hist := SupportHistogramAlgoScratch(v, k, floor, workers, Auto, nil); !reflect.DeepEqual(hist, wantHist) {
						t.Fatalf("%s: SupportHistogramAlgoScratch %v, DFS histogram %v", name, hist, wantHist)
					}
				}
			}
		}
	}
	for k := 2; k <= 5; k++ {
		if nonEmpty[k] < 20 {
			t.Fatalf("k=%d: table is nearly vacuous: %d non-empty cases", k, nonEmpty[k])
		}
	}
	if viaAuto < 20 {
		t.Fatalf("only %d non-empty cases dispatch to the kernel under Auto", viaAuto)
	}
	// At floor 5 the kernel must keep the pair at the floor and drop the
	// one below it.
	got := collectScratch(func(emit func(Itemset, int)) {
		newEclatShards(floorEdges.Vertical(), 2, 5, 1, NewScratch()).stream(emit)
	})
	if want := []Result{{Items: Itemset{0, 1}, Support: 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("floor-edges at floor 5: %v, want %v", got, want)
	}
}

// atFloor is the intersect-all DFS at floor f read off its run at floor 1:
// raising the floor drops items and itemsets but keeps the surviving items'
// relative eclat order, so the DFS's output at floor f is its floor-1
// output filtered to supports >= f, in the same order.
func atFloor(all []Result, f int) []Result {
	var out []Result
	for _, r := range all {
		if r.Support >= f {
			out = append(out, r)
		}
	}
	return out
}

// streamDiff runs a stream against want, entry by entry, and describes the
// first difference; "" means the stream emitted exactly want, in order.
func streamDiff(want []Result, run func(emit func(Itemset, int))) string {
	i, diff := 0, ""
	run(func(items Itemset, sup int) {
		if diff == "" && (i >= len(want) || !items.Equal(want[i].Items) || sup != want[i].Support) {
			diff = fmt.Sprintf("entry %d is %v with support %d", i, items, sup)
		}
		i++
	})
	if diff == "" && i != len(want) {
		diff = fmt.Sprintf("%d entries, want %d", i, len(want))
	}
	return diff
}

// fuzzVertical decodes fuzz bytes into a small vertical dataset: the first
// byte sets the universe (2..17 items), and every later byte adds item
// b mod n to the current transaction, closing it when b's high bit is set.
func fuzzVertical(data []byte) *dataset.Vertical {
	if len(data) == 0 {
		return dataset.MustNew(1, nil).Vertical()
	}
	n := 2 + int(data[0]%16)
	tx := [][]uint32{nil}
	for _, b := range data[1:] {
		last := len(tx) - 1
		if it := uint32(b) % uint32(n); !slices.Contains(tx[last], it) {
			tx[last] = append(tx[last], it)
		}
		if b >= 128 {
			tx = append(tx, nil)
		}
	}
	return dataset.MustNew(n, tx).Vertical()
}

// FuzzCountKernel checks the counting kernel against the intersect-all
// DFS on small arbitrary datasets: both sinks, serial and sharded, at
// k = 2..5 and floors 1..8.
func FuzzCountKernel(f *testing.F) {
	f.Add([]byte{6, 1, 2, 3, 0x84, 1, 2, 0x83, 2, 3, 4, 0x81}, uint8(1), uint8(0))
	f.Add([]byte{0, 0, 1, 0x80, 1, 0x80, 0, 1, 0x81}, uint8(0), uint8(1))
	f.Add([]byte{15, 1, 2, 3, 4, 5, 6, 7, 0x88, 1, 2, 3, 4, 5, 6, 0x87, 1, 2, 3, 4, 5, 0x86}, uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kb, floorb uint8) {
		if len(data) > 512 {
			return
		}
		v := fuzzVertical(data)
		k, floor := 2+int(kb%4), 1+int(floorb%8)
		want := intersectAllDFS(v, k, floor)
		wantHist := histogramOf(v, want)
		for _, workers := range []int{1, 3} {
			if diff := streamDiff(want, newEclatShards(v, k, floor, workers, NewScratch()).stream); diff != "" {
				t.Fatalf("k=%d floor=%d workers=%d: stream differs from the DFS %v: %s", k, floor, workers, want, diff)
			}
			hist := make([]int64, v.MaxItemSupport()+1)
			newEclatShards(v, k, floor, workers, NewScratch()).count(hist)
			if !reflect.DeepEqual(hist, wantHist) {
				t.Fatalf("k=%d floor=%d workers=%d: count %v, DFS histogram %v", k, floor, workers, hist, wantHist)
			}
		}
	})
}

// TestReplicateLoopZeroAllocs guards the replicate engine's steady state:
// once warm, generating a null replicate into a pooled Vertical and mining
// it on a pooled Scratch allocate nothing, at k = 2 and on the counting
// kernel at k = 3, and on the low-floor hash path at k = 3.
func TestReplicateLoopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	freqs := make([]float64, 60)
	for i := range freqs {
		freqs[i] = 0.05 + 0.25*float64(i)/float64(len(freqs))
	}
	r := stats.NewRNG(8)
	// Two warm-up replicates, at 20000 and 21000 transactions, make the
	// pooled buffers regrow once. Then every replicate is 300 transactions
	// larger than the last, ~3150 more occurrences: a rank index regrown to
	// the exact size it needs would reallocate its ranks (beyond one 8 KiB
	// page) at every one of them, while append's headroom covers them all.
	var reps []*dataset.Vertical
	for _, T := range []int{20000, 21000, 21300, 21600, 21900, 22200, 22500, 22800, 23100, 23400, 23700, 24000} {
		reps = append(reps, randmodel.IndependentModel{T: T, Freqs: freqs}.Generate(r))
	}
	// Both floors are above hashPathMaxSupport, so Auto runs the counting
	// kernel; at k = 3 it also descends into frequent pairs' tid lists.
	for _, c := range []struct {
		name     string
		k, floor int
	}{{"mine", 2, 20}, {"mine-k3", 3, 400}} {
		t.Run(c.name, func(t *testing.T) {
			s := NewScratch()
			mined := 0
			emit := func(Itemset, int) { mined++ }
			for _, v := range reps[:2] {
				VisitKAlgoScratch(v, c.k, c.floor, 1, Auto, s, emit)
			}
			next := 2
			allocs := testing.AllocsPerRun(len(reps)-next-1, func() {
				VisitKAlgoScratch(reps[next], c.k, c.floor, 1, Auto, s, emit)
				next++
			})
			if allocs != 0 {
				t.Errorf("VisitKAlgoScratch(k=%d) on a warm Scratch: %v allocations per replicate, want 0", c.k, allocs)
			}
			if mined == 0 {
				t.Fatal("the replicates mined nothing; the test is vacuous")
			}
		})
	}
	// Short transactions (mean length 2.5 over 400 items) at k = 3, floor
	// 2 take the hash path: the sort counter's pooled words, sketch, runs
	// and radix counts must settle too.
	t.Run("mine-hash", func(t *testing.T) {
		short := make([]float64, 400)
		for i := range short {
			short[i] = 0.001 + 0.01*float64(i)/float64(len(short))
		}
		var reps []*dataset.Vertical
		for _, T := range []int{20000, 21000, 21300, 21600, 21900, 22200, 22500, 22800, 23100, 23400, 23700, 24000} {
			v := randmodel.IndependentModel{T: T, Freqs: short}.Generate(r)
			if !useHashPath(v, 3, 2, NewScratch()) {
				t.Fatalf("replicate of %d transactions does not take the hash path at k=3 floor 2", T)
			}
			reps = append(reps, v)
		}
		s := NewScratch()
		mined := 0
		emit := func(Itemset, int) { mined++ }
		for _, v := range reps[:2] {
			VisitKAlgoScratch(v, 3, 2, 1, Auto, s, emit)
		}
		next := 2
		allocs := testing.AllocsPerRun(len(reps)-next-1, func() {
			VisitKAlgoScratch(reps[next], 3, 2, 1, Auto, s, emit)
			next++
		})
		if allocs != 0 {
			t.Errorf("VisitKAlgoScratch(k=3, floor 2) on a warm Scratch: %v allocations per replicate, want 0", allocs)
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
