package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

// The replicate-fabric unit tests: range splitting, partial validation, the
// MineRange worker path, and — through stub runners — the merge's invariants
// under out-of-order completion, malformed (duplicate-range) partials, and
// runner failure. The distributed HTTP stack has its own end-to-end suite at
// the repository root (distributed_determinism_test.go); these tests pin the
// montecarlo-level contracts it builds on.

// fabricModel is a small independence model dense enough that every replicate
// mines a nontrivial itemset collection.
func fabricModel() randmodel.Model {
	freqs := make([]float64, 24)
	for i := range freqs {
		freqs[i] = 0.08 + 0.01*float64(i%5)
	}
	return randmodel.IndependentModel{T: 150, Freqs: freqs}
}

// fabricSeeds derives per-replicate seeds exactly as FindPoissonThresholdCtx
// does: seed i of the root stream drives replicate i.
func fabricSeeds(rootSeed uint64, delta int) []uint64 {
	root := stats.NewRNG(rootSeed)
	seeds := make([]uint64, delta)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	return seeds
}

func TestSplitRanges(t *testing.T) {
	cases := []struct {
		delta, size int
		want        []ReplicateRange
	}{
		{delta: 0, size: 3, want: []ReplicateRange{}},
		{delta: 1, size: 1, want: []ReplicateRange{{0, 1}}},
		{delta: 5, size: 2, want: []ReplicateRange{{0, 2}, {2, 4}, {4, 5}}},
		{delta: 6, size: 2, want: []ReplicateRange{{0, 2}, {2, 4}, {4, 6}}},
		{delta: 4, size: 99, want: []ReplicateRange{{0, 4}}},
		{delta: 3, size: 0, want: []ReplicateRange{{0, 1}, {1, 2}, {2, 3}}}, // size < 1 clamps to 1
	}
	for _, c := range cases {
		got := splitRanges(c.delta, c.size)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitRanges(%d, %d) = %v, want %v", c.delta, c.size, got, c.want)
		}
	}
	// Any split covers [0, delta) exactly once, in order.
	for _, size := range []int{1, 2, 3, 7, 100} {
		next := 0
		for _, r := range splitRanges(100, size) {
			if r.From != next || r.To <= r.From {
				t.Fatalf("splitRanges(100, %d): bad range %v after index %d", size, r, next)
			}
			next = r.To
		}
		if next != 100 {
			t.Fatalf("splitRanges(100, %d): covers up to %d, want 100", size, next)
		}
	}
}

func TestRangeRequestValidate(t *testing.T) {
	valid := RangeRequest{
		Range: ReplicateRange{From: 2, To: 5},
		K:     2, Floor: 3, Seeds: []uint64{1, 2, 3},
	}
	if err := valid.validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*RangeRequest)
		want   string
	}{
		{"empty range", func(r *RangeRequest) { r.Range.To = r.Range.From; r.Seeds = nil }, "invalid replicate range"},
		{"inverted range", func(r *RangeRequest) { r.Range.To = 1 }, "invalid replicate range"},
		{"negative from", func(r *RangeRequest) { r.Range.From = -1; r.Seeds = []uint64{1, 2, 3, 4, 5, 6} }, "invalid replicate range"},
		{"seed count mismatch", func(r *RangeRequest) { r.Seeds = r.Seeds[:2] }, "seeds"},
		{"bad k", func(r *RangeRequest) { r.K = 0 }, "K must be"},
		{"bad floor", func(r *RangeRequest) { r.Floor = 0 }, "floor must be"},
	}
	for _, c := range cases {
		req := valid
		c.mutate(&req)
		err := req.validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// TestMineRangeMatchesSingleReplicates pins the fabric's core algebra: mining
// [0, delta) as one range, as single-replicate ranges, or as uneven chunks
// yields partials whose concatenation is identical — the mined output of a
// replicate depends only on its seed, never on its range grouping.
func TestMineRangeMatchesSingleReplicates(t *testing.T) {
	m := fabricModel()
	const delta, k, floor = 12, 2, 2
	seeds := fabricSeeds(7, delta)

	mine := func(from, to int) *Partial {
		req := RangeRequest{
			Range: ReplicateRange{From: from, To: to},
			K:     k, Floor: floor, Seeds: seeds[from:to],
		}
		var p Partial
		if err := MineRange(context.Background(), m, req, nil, &p); err != nil {
			t.Fatalf("MineRange[%d,%d): %v", from, to, err)
		}
		if err := p.Validate(req); err != nil {
			t.Fatalf("partial[%d,%d) invalid: %v", from, to, err)
		}
		return &p
	}

	whole := mine(0, delta)
	if len(whole.Sups) == 0 {
		t.Fatal("whole-range partial mined nothing; test is vacuous")
	}

	concat := func(ranges []ReplicateRange) *Partial {
		out := &Partial{From: 0, To: delta, Floor: floor, K: k}
		for _, r := range ranges {
			p := mine(r.From, r.To)
			out.Counts = append(out.Counts, p.Counts...)
			out.Items = append(out.Items, p.Items...)
			out.Sups = append(out.Sups, p.Sups...)
		}
		return out
	}
	for _, size := range []int{1, 3, 5, delta} {
		got := concat(splitRanges(delta, size))
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("range size %d: concatenated partials differ from whole-range mine", size)
		}
	}
}

// TestMineRangeScratchReuse checks that a pooled scratch and a recycled
// output partial are observationally equivalent to fresh ones.
func TestMineRangeScratchReuse(t *testing.T) {
	m := fabricModel()
	seeds := fabricSeeds(11, 6)
	req := RangeRequest{
		Range: ReplicateRange{From: 0, To: 6},
		K:     2, Floor: 2, Seeds: seeds,
	}
	var fresh Partial
	if err := MineRange(context.Background(), m, req, nil, &fresh); err != nil {
		t.Fatal(err)
	}
	scr := NewRangeScratch()
	var recycled Partial
	for pass := 0; pass < 3; pass++ { // same buffers, same scratch, three times
		if err := MineRange(context.Background(), m, req, scr, &recycled); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recycled, fresh) {
			t.Fatalf("pass %d: recycled-scratch partial differs from fresh partial", pass)
		}
	}
}

// runnerConfig is the base config the stub-runner tests run Algorithm 1 with.
func runnerConfig() Config {
	return Config{K: 2, Delta: 40, Epsilon: 0.05, Seed: 5, Workers: 4}
}

// TestRunnerBitIdentity runs FindPoissonThresholdCtx through a stub runner
// (executing each range in-process via MineRange, exactly as a remote worker
// would) at several range sizes and inflight bounds, and requires the result
// to be deep-equal to the plain single-process run.
func TestRunnerBitIdentity(t *testing.T) {
	m := fabricModel()
	base, err := FindPoissonThresholdCtx(context.Background(), m, runnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rangeSize := range []int{0, 1, 3, 17, 64} {
		for _, inflight := range []int{1, 4} {
			cfg := runnerConfig()
			cfg.RangeSize = rangeSize
			cfg.RangeInflight = inflight
			cfg.Runner = func(ctx context.Context, req RangeRequest) (*Partial, error) {
				var p Partial
				if err := MineRange(ctx, m, req, nil, &p); err != nil {
					return nil, err
				}
				return &p, nil
			}
			got, err := FindPoissonThresholdCtx(context.Background(), m, cfg)
			if err != nil {
				t.Fatalf("rangeSize=%d inflight=%d: %v", rangeSize, inflight, err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("rangeSize=%d inflight=%d: runner result differs from single-process run", rangeSize, inflight)
			}
		}
	}
}

// TestRunnerOutOfOrderCompletion forces partials to COMPLETE in reverse range
// order (the first-claimed range finishes last) and requires the merge — which
// consumes ranges strictly in replicate-index order — to still produce the
// single-process result.
func TestRunnerOutOfOrderCompletion(t *testing.T) {
	m := fabricModel()
	base, err := FindPoissonThresholdCtx(context.Background(), m, runnerConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := runnerConfig()
	cfg.RangeSize = 7
	cfg.RangeInflight = 8
	numRanges := len(splitRanges(cfg.Delta, cfg.RangeSize))

	// Completion gate: range i may only return after every range j > i that
	// was dispatched concurrently has returned. With inflight == numRanges
	// every range is in flight at once, so completions run strictly backwards.
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	returned := make(map[int]bool)
	cfg.Runner = func(ctx context.Context, req RangeRequest) (*Partial, error) {
		var p Partial
		if err := MineRange(ctx, m, req, nil, &p); err != nil {
			return nil, err
		}
		idx := req.Range.From / 7
		mu.Lock()
		for later := idx + 1; later < numRanges; later++ {
			if !returned[later] {
				cond.Wait()
				later = idx // recheck all later ranges after every wakeup
			}
		}
		returned[idx] = true
		cond.Broadcast()
		mu.Unlock()
		return &p, nil
	}
	got, err := FindPoissonThresholdCtx(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Fatal("reverse-order completion changed the result")
	}
}

// TestRunnerDuplicateRangePartial has the runner answer every request with a
// partial for range [0, size) — a worker echoing the wrong (duplicated)
// range. Validate must reject the mismatch and fail the run instead of
// merging the same replicates twice.
func TestRunnerDuplicateRangePartial(t *testing.T) {
	m := fabricModel()
	cfg := runnerConfig()
	cfg.RangeSize = 5
	var first *Partial
	var mu sync.Mutex
	cfg.Runner = func(ctx context.Context, req RangeRequest) (*Partial, error) {
		var p Partial
		if err := MineRange(ctx, m, req, nil, &p); err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if first == nil {
			first = &p
		}
		return first, nil // every later range gets range 0's partial
	}
	_, err := FindPoissonThresholdCtx(context.Background(), m, cfg)
	if err == nil {
		t.Fatal("duplicate-range partials were merged without error")
	}
	if !errors.Is(err, ErrInvalidPartial) {
		t.Fatalf("error %q does not wrap ErrInvalidPartial", err)
	}
	if !strings.Contains(err.Error(), "covers") {
		t.Fatalf("error %q does not name the range mismatch", err)
	}
}

// TestRunnerFloorViolationRejected: a partial claiming a mining floor above
// the requested floor silently dropped entries; Validate must refuse it.
func TestRunnerFloorViolationRejected(t *testing.T) {
	m := fabricModel()
	cfg := runnerConfig()
	cfg.RangeSize = 10
	cfg.Runner = func(ctx context.Context, req RangeRequest) (*Partial, error) {
		var p Partial
		if err := MineRange(ctx, m, req, nil, &p); err != nil {
			return nil, err
		}
		p.Floor = req.Floor + 5
		return &p, nil
	}
	_, err := FindPoissonThresholdCtx(context.Background(), m, cfg)
	if err == nil || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("floor violation not rejected: %v", err)
	}
}

// TestRunnerFailurePropagates: a runner error (all retries exhausted inside
// the runner) fails the estimate with the offending range named.
func TestRunnerFailurePropagates(t *testing.T) {
	m := fabricModel()
	cfg := runnerConfig()
	cfg.RangeSize = 8
	cfg.Runner = func(ctx context.Context, req RangeRequest) (*Partial, error) {
		if req.Range.From >= 16 && req.Range.From < 24 {
			return nil, fmt.Errorf("worker exploded")
		}
		var p Partial
		if err := MineRange(ctx, m, req, nil, &p); err != nil {
			return nil, err
		}
		return &p, nil
	}
	_, err := FindPoissonThresholdCtx(context.Background(), m, cfg)
	if err == nil {
		t.Fatal("runner failure did not fail the run")
	}
	if !strings.Contains(err.Error(), "replicate range [16,24)") || !strings.Contains(err.Error(), "worker exploded") {
		t.Fatalf("error %q does not name the failed range and cause", err)
	}
}

// TestRunnerSwapNullBitIdentity repeats the runner identity check under the
// swap-randomization null, whose replicates re-run a Markov chain from the
// base dataset — the null the distributed path must also reproduce exactly.
func TestRunnerSwapNullBitIdentity(t *testing.T) {
	base2 := randmodel.IndependentModel{T: 80, Freqs: fabricModel().(randmodel.IndependentModel).Freqs}
	ds := base2.Generate(stats.NewRNG(99)).Horizontal()
	m := &randmodel.SwapModel{Base: ds, ProposalsPerOccurrence: 2}

	cfg := Config{K: 2, Delta: 24, Epsilon: 0.05, Seed: 3, Workers: 4}
	want, err := FindPoissonThresholdCtx(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RangeSize = 5
	cfg.Runner = func(ctx context.Context, req RangeRequest) (*Partial, error) {
		// A "remote" executor: fresh model value built from the same base
		// dataset, as a worker process would construct it.
		worker := &randmodel.SwapModel{Base: ds, ProposalsPerOccurrence: 2}
		var p Partial
		if err := MineRange(ctx, worker, req, nil, &p); err != nil {
			return nil, err
		}
		return &p, nil
	}
	got, err := FindPoissonThresholdCtx(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("swap-null runner result differs from single-process run")
	}
}

// TestMergePartialWarmZeroAllocs: once the collection's entry slice and
// table have grown, merging a partial appends into capacity it already has
// — no per-itemset slice, no table growth.
func TestMergePartialWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	ctx := context.Background()
	req := RangeRequest{Range: ReplicateRange{From: 0, To: 8}, K: 2, Floor: 2, Seeds: fabricSeeds(3, 8)}
	var p Partial
	if err := MineRange(ctx, fabricModel(), req, nil, &p); err != nil {
		t.Fatal(err)
	}
	col := newCollection(2, req.Floor)
	cfg := Config{MaxEntries: 1 << 30}
	raise := func(int) {}
	merge := func() {
		if err := mergePartial(ctx, col, &p, req.K, 1<<30, req.Floor, 8, cfg, raise); err != nil {
			t.Fatal(err)
		}
	}
	merge() // grows the table and the entry slice
	want := col.numEntries()
	if want == 0 {
		t.Fatal("the partial merged no entries; the guard would prove nothing")
	}
	allocs := testing.AllocsPerRun(20, func() {
		col.entries = col.entries[:0]
		merge()
	})
	if allocs != 0 {
		t.Fatalf("warm mergePartial allocated %v times per merge, want 0", allocs)
	}
	if got := col.numEntries(); got != want {
		t.Fatalf("re-merge recorded %d entries, want %d", got, want)
	}
}
