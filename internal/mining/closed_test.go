package mining

import (
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// bruteClosed derives closed itemsets from all frequent itemsets: keep those
// with no strict superset of equal support.
func bruteClosed(d *dataset.Dataset, minSupport int) []Result {
	v := d.Vertical()
	all := eclatAll(v, minSupport, 0, 1)
	var out []Result
	for _, r := range all {
		closed := true
		for _, o := range all {
			if len(o.Items) > len(r.Items) && o.Support == r.Support && r.Items.SubsetOf(o.Items) {
				closed = false
				break
			}
		}
		if closed {
			out = append(out, r)
		}
	}
	SortResults(out)
	return out
}

func TestClosureBasics(t *testing.T) {
	// item 0 and 1 always co-occur; 2 sometimes joins.
	d := dataset.MustNew(3, [][]uint32{
		{0, 1}, {0, 1}, {0, 1, 2},
	})
	v := d.Vertical()
	c := Closure(v, Itemset{0})
	if !c.Equal(Itemset{0, 1}) {
		t.Fatalf("Closure({0}) = %v", c)
	}
	if IsClosed(v, Itemset{0}) {
		t.Error("{0} should not be closed")
	}
	if !IsClosed(v, Itemset{0, 1}) {
		t.Error("{0,1} should be closed")
	}
	if !IsClosed(v, Itemset{0, 1, 2}) {
		t.Error("{0,1,2} should be closed")
	}
}

func TestClosedAllAgainstBrute(t *testing.T) {
	r := stats.NewRNG(555)
	for trial := 0; trial < 30; trial++ {
		d := randomDataset(r, 8, 25)
		for _, minSup := range []int{1, 2, 4} {
			want := bruteClosed(d, minSup)
			got := ClosedAll(d.Vertical(), minSup)
			if !resultsEqual(got, want) {
				t.Fatalf("trial %d minSup=%d: ClosedAll %d vs brute %d",
					trial, minSup, len(got), len(want))
			}
		}
	}
}

func TestClosedCountNeverExceedsFrequent(t *testing.T) {
	r := stats.NewRNG(556)
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(r, 8, 25)
		v := d.Vertical()
		all := mustMine(t, v, Options{MinSupport: 2})
		closed := ClosedAll(v, 2)
		if len(closed) > len(all) {
			t.Fatalf("more closed than frequent: %d > %d", len(closed), len(all))
		}
		// Every frequent itemset must have a closed superset of equal support.
		for _, fr := range all {
			found := false
			for _, cl := range closed {
				if cl.Support == fr.Support && fr.Items.SubsetOf(cl.Items) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("frequent %v (sup %d) has no closed cover", fr.Items, fr.Support)
			}
		}
	}
}

func TestVisitClosedEarlyStop(t *testing.T) {
	d := dataset.MustNew(4, [][]uint32{
		{0}, {1}, {2}, {3}, {0, 1}, {2, 3},
	})
	calls := 0
	VisitClosed(d.Vertical(), 1, func(Itemset, int) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Fatalf("early stop made %d calls", calls)
	}
}

func TestLargeClosedBlockIsCheap(t *testing.T) {
	// A planted 40-item block at support 5 has 2^40 frequent subsets but only
	// a handful of closed sets; direct closed enumeration must stay tiny.
	const blockSize = 40
	tx := make([][]uint32, 0, 25)
	block := make([]uint32, blockSize)
	for i := range block {
		block[i] = uint32(i)
	}
	for i := 0; i < 5; i++ {
		tx = append(tx, block)
	}
	for i := 0; i < 20; i++ {
		tx = append(tx, []uint32{uint32(blockSize + i%3)})
	}
	d := dataset.MustNew(blockSize+3, tx)
	v := d.Vertical()
	closed := ClosedAll(v, 2)
	if len(closed) > 10 {
		t.Fatalf("expected few closed sets, got %d", len(closed))
	}
	best, sup := MaxClosedCardinality(v, 2)
	if len(best) != blockSize || sup != 5 {
		t.Fatalf("MaxClosedCardinality = %d items at support %d", len(best), sup)
	}
}

func TestMaxClosedCardinalityEmpty(t *testing.T) {
	d := dataset.MustNew(2, [][]uint32{{}, {}})
	best, sup := MaxClosedCardinality(d.Vertical(), 1)
	if len(best) != 0 || sup != 0 {
		t.Fatalf("expected none, got %v at %d", best, sup)
	}
}
