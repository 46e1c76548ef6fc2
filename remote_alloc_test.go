package sigfim

import (
	"context"
	"testing"

	"sigfim/internal/montecarlo"
)

// TestMineReplicateRangeWarmAllocs: the worker entry point reuses the
// dataset's range scratch and the caller's partial, so a second range on a
// warm dataset allocates a small constant — the per-request null model —
// and nothing per replicate or per mined itemset.
func TestMineReplicateRangeWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(1000 + i)
	}
	var out RangePartial
	allocsFor := func(n int) float64 {
		req := PartialRequest{From: 0, To: n, K: 2, Floor: 2, Seeds: seeds[:n]}
		mine := func() {
			if err := d.MineReplicateRange(context.Background(), req, &out); err != nil {
				t.Fatal(err)
			}
		}
		mine() // warm the dataset's scratch and out's buffers
		return testing.AllocsPerRun(10, mine)
	}
	one, many := allocsFor(1), allocsFor(16)
	if len(out.Sups) == 0 {
		t.Fatal("the range mined no itemsets; the guard would prove nothing")
	}
	t.Logf("allocations per warm range: %v for 1 replicate, %v for 16", one, many)
	if many > one || many > 8 {
		t.Fatalf("a warm 16-replicate range allocated %v times (1 replicate: %v), want a small constant", many, one)
	}
}

// TestRangeScratchIdleListTrims: a dataset keeps one range scratch per
// range mined at once while ranges are in flight, and one once the last of
// them finishes.
func TestRangeScratchIdleListTrims(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	scrs := []*montecarlo.RangeScratch{d.takeRangeScratch(), d.takeRangeScratch(), d.takeRangeScratch()}
	for i, want := range []int{1, 2, 1} {
		d.putRangeScratch(scrs[i])
		if got := len(d.scrIdle); got != want {
			t.Fatalf("after range %d finished: %d idle scratches, want %d", i+1, got, want)
		}
	}
}
