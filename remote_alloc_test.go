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

// TestRangeScratchIdleListTrims: MineReplicateRange takes its scratch
// from the dataset's idle list and gives it back, so once the last range
// in flight finishes the dataset keeps one scratch.
func TestRangeScratchIdleListTrims(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	held := d.scratches.Take(montecarlo.NewRangeScratch) // a range still in flight
	req := PartialRequest{From: 0, To: 2, K: 2, Floor: 2, Seeds: []uint64{1, 2}}
	if err := d.MineReplicateRange(context.Background(), req, new(RangePartial)); err != nil {
		t.Fatal(err)
	}
	d.scratches.Put(held)
	if got := d.scratches.Len(); got != 1 {
		t.Fatalf("%d idle scratches after the last range finished, want 1", got)
	}
}
