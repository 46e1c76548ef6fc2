// Package montecarlo implements Algorithm 1 of the paper
// (FindPoissonThreshold): a Monte Carlo estimate of the support threshold
// s_min above which the count Q̂_{k,s} of frequent k-itemsets in a random
// dataset is approximately Poisson.
//
// The estimator generates Delta independent datasets from the null model,
// mines the k-itemsets with support at least s-tilde (the largest expected
// k-itemset support) from each, and estimates the Chen-Stein quantities
// b1(s) and b2(s) from the empirical marginal and joint exceedance
// frequencies of the union set W. The returned threshold is
//
//	ŝ_min = min{ s > s-tilde : b̂1(s) + b̂2(s) <= eps/4 },
//
// halving s-tilde and re-mining when even s-tilde already satisfies the
// bound (the paper's goto). Theorem 4: Delta = O(log(1/delta)/eps)
// replicates suffice for ŝ_min to be sound with probability 1 - delta.
//
// Both b̂1 and b̂2 are non-increasing in s, so instead of scanning every
// support level the search gallops downward from the maximum observed
// support and finishes with a binary search; each evaluation touches only
// the itemsets still live at that s, which keeps the expensive low-s
// evaluations out of the search path entirely.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"sigfim/internal/mining"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
	"sigfim/internal/trace"
)

// Config parameterizes Algorithm 1.
type Config struct {
	// K is the itemset size under study.
	K int
	// Delta is the number of random replicates (the paper's ∆; 1000 in the
	// paper's experiments).
	Delta int
	// Epsilon is the Poisson-approximation tolerance (the paper uses 0.01);
	// the acceptance test inside the algorithm uses Epsilon/4 per Theorem 4.
	Epsilon float64
	// Seed fixes the replicate streams.
	Seed uint64
	// MaxEntries caps the total number of (itemset, replicate) support
	// records; the estimator fails rather than exhaust memory when the
	// mining floor would collect more. Zero means 50 million.
	MaxEntries int
	// Workers bounds the total mining parallelism. Zero means GOMAXPROCS.
	// Workers are split between replicate-level and intra-mine parallelism:
	// up to Delta goroutines each mine one replicate (replicates are
	// embarrassingly parallel, so this level is saturated first), and only
	// when Workers exceeds the replicate count does the surplus parallelize
	// each individual mine through the sharded mining engine. Results are
	// merged in replicate order and intra-mine shards replay in serial
	// order, so the output is identical for any worker count.
	Workers int
	// Algorithm selects the replicate miner. Every algorithm mines the same
	// itemsets, so the result is identical for any algorithm and worker
	// count. The zero value, mining.Auto, is the one production miner and
	// the only one parallelized within a mine; the others are serial
	// reference miners the mining tests and the benchmark compare against.
	Algorithm mining.Algorithm
	// Progress, when non-nil, is called on the merge goroutine after each
	// replicate's itemsets have been merged, with the number merged so far
	// and the total Delta. An s-tilde halving restarts the count from zero.
	// The callback must be fast and must not block; it cannot influence the
	// result.
	Progress func(done, total int)
	// Runner, when non-nil, executes replicate ranges remotely (see
	// RangeRunner): the Delta replicates are split into ranges of RangeSize,
	// dispatched concurrently through the runner, and the returned partials
	// are merged in replicate-index order. Results are bit-identical to the
	// in-process run for every runner, range size, and in-flight count,
	// because each replicate index consumes the same seed and the merge
	// consumes replicates in the same order either way.
	Runner RangeRunner
	// RangeSize is the number of replicates per Runner dispatch (0 picks a
	// size that keeps ~4 ranges per in-flight slot). Ignored without Runner.
	RangeSize int
	// RangeInflight bounds concurrent Runner dispatches (0 = 4). Ignored
	// without Runner.
	RangeInflight int
	// CollectMinPs additionally records, for every replicate, the minimum
	// marginal Binomial p-value over the replicate's mined itemsets — the
	// Westfall-Young min-p null distribution (Result.MinPs). Collection
	// pins every replicate range's mining floor to the halving's base floor
	// (disabling the adaptive raised-floor mining shortcut, which is racy by
	// design and merge-corrected, so the minimum's family would otherwise
	// depend on scheduling) and costs one exact Binomial tail per mined
	// itemset; it changes nothing else about the estimate, and the recorded
	// distribution is bit-identical for every worker count, range size,
	// executor, and algorithm.
	CollectMinPs bool
}

// maxHalvings bounds the s-tilde halving loop.
const maxHalvings = 20

func (c Config) withDefaults() Config {
	if c.MaxEntries == 0 {
		c.MaxEntries = 50_000_000
	}
	return c
}

func (c Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("montecarlo: K must be >= 1, got %d", c.K)
	}
	if c.Delta < 1 {
		return fmt.Errorf("montecarlo: Delta must be >= 1, got %d", c.Delta)
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("montecarlo: Epsilon must be in (0,1), got %v", c.Epsilon)
	}
	return nil
}

// BoundPoint is one evaluated point of the empirical bound curve. Partial
// marks points whose accumulation stopped early once the bound provably
// exceeded the acceptance target; their B1/B2 are lower bounds on the true
// values.
type BoundPoint struct {
	S       int
	B1      float64
	B2      float64
	Partial bool
}

// Result carries the estimated threshold plus the by-products Procedure 2
// reuses: the empirical lambda estimator and the evaluation trace.
type Result struct {
	// SMin is the estimated Poisson threshold ŝ_min.
	SMin int
	// STilde is the final (possibly halved) s-tilde the estimate ran with.
	STilde float64
	// Floor is the integer mining threshold that produced W.
	Floor int
	// SMax is one past the maximum support observed in any replicate.
	SMax int
	// NumItemsets is |W|, the union count of distinct itemsets mined.
	NumItemsets int
	// Curve lists every (s, b1, b2) evaluation performed, ascending in s.
	Curve []BoundPoint
	// Delta is the replicate count used.
	Delta int
	// MinPs, filled under Config.CollectMinPs, holds one value per replicate
	// (index order, len == Delta): the minimum marginal Binomial p-value any
	// k-itemset with support >= MinPFloor attained in that replicate, or
	// MinPNone for replicates in which no itemset reached the floor. This is
	// the Westfall-Young null distribution mht.WestfallYoung consumes.
	MinPs []float64
	// MinPFloor is the support floor the MinPs minima range over — the final
	// halving's base mining floor, always <= the s_min the caller will test
	// at. Minimizing over this superset family can only produce smaller
	// minima, i.e. larger adjusted p-values: the truncation is conservative.
	MinPFloor int

	// allSupports holds every recorded support across replicates, sorted
	// ascending; Lambda(s) = (#supports >= s) / Delta.
	allSupports []int
}

// Lambda returns the Monte Carlo estimate of E[Q̂_{k,s}] for any s >= Floor,
// reusing the Algorithm 1 replicates exactly as the paper prescribes for
// Procedure 2's lambda_i values.
func (r *Result) Lambda(s int) float64 {
	if s < r.Floor {
		panic(fmt.Sprintf("montecarlo: Lambda(%d) below mining floor %d", s, r.Floor))
	}
	idx := sort.SearchInts(r.allSupports, s)
	return float64(len(r.allSupports)-idx) / float64(r.Delta)
}

// Ladder returns where Procedure 2's threshold ladder starts and the lambda
// estimates it tests against: ŝ_min raised to the mining floor, since the
// estimates only exist down to it, and Lambda with its argument clamped to
// the floor.
func (r *Result) Ladder() (sMin int, lambda func(s int) float64) {
	return max(r.SMin, r.Floor), func(s int) float64 { return r.Lambda(max(s, r.Floor)) }
}

// entry records one replicate's support of one itemset: id is the itemset's
// id in the collection's table.
type entry struct {
	id  int32
	rep int32
	sup int32
}

// collection holds the mined union set W with per-replicate supports. The
// itemsets live in a string-free mining.ItemsetTable — an open-addressing
// hash table over the packed [k]uint32 tuples — whose dense insertion-order
// ids the entries carry. The merge appends every (itemset, replicate,
// support) record to one flat slice in replicate order, so a merged entry
// costs an append into capacity the slice already has, never a small slice
// of its own. Once a halving's merge is done, group sorts the entries by id
// (a stable counting sort, so each itemset's entries keep ascending
// replicate order) and indexes them with offsets; the evaluator and
// finishResult read that grouped form.
//
// pruneFloor is the adaptive retention threshold: when the entry volume
// exceeds the soft cap, entries below a raised pruneFloor are discarded.
// Dropping them is sound because at the moment of pruning there were more
// than softCap recorded (itemset, replicate) pairs with support >= the old
// floor, and the diagonal terms of b1 alone give
//
//	b1(s) >= sum_X p_X(s)^2 >= numEntry / Delta^2   for every s <= old floor
//
// (each entry contributes at least (1/Delta)^2 through its itemset's
// square), which dwarfs eps/4 for any usable configuration — so every
// support level below pruneFloor is already known to fail the Poisson
// acceptance test and never needs an exact evaluation.
type collection struct {
	k          int
	index      *mining.ItemsetTable // W: id lookup + packed tuple storage
	entries    []entry              // merge order until group, then grouped by id
	off        []int                // after group: id's entries are entries[off[id]:off[id+1]]
	maxSup     int
	pruneFloor int
}

// newCollection returns an empty collection for k-itemsets.
func newCollection(k, floor int) *collection {
	return &collection{k: k, index: mining.NewItemsetTable(k, 0), pruneFloor: floor}
}

// itemsOf returns the itemset of entry id (a view into the table storage;
// valid until the next prune).
func (col *collection) itemsOf(id int) mining.Itemset {
	return mining.Itemset(col.index.Items(id))
}

// entriesOf returns itemset id's entries in ascending replicate order. Valid
// only after group.
func (col *collection) entriesOf(id int) []entry {
	return col.entries[col.off[id]:col.off[id+1]]
}

// numItemsets returns |W|.
func (col *collection) numItemsets() int { return col.index.Len() }

// numEntries returns the number of (itemset, replicate) records.
func (col *collection) numEntries() int { return len(col.entries) }

// reserve makes room for the entries still to come once the entry slice is
// full, merged of total replicates into the halving: the remaining
// replicates at the rate seen so far, plus a tenth, so that one allocation
// usually holds the whole halving (append's own ~1.25x steps would copy the
// entries some 5x over, and doubling would hold up to twice the room
// needed). Growth is at least a quarter, so a low estimate still grows
// geometrically, and the estimate stops at limit, the soft cap the entries
// are pruned back under. Capacity never changes what is stored.
func (col *collection) reserve(merged, total, limit int) {
	n := len(col.entries)
	more := max(n/4, 1024)
	if merged > 0 {
		est := int(float64(n) / float64(merged) * float64(total-merged) * 1.1)
		more = max(more, min(est, limit-n))
	}
	col.entries = slices.Grow(col.entries, more)
}

// group sorts the entries by itemset id, stably, and builds the offsets
// entriesOf reads. The merge appends in ascending replicate order, so every
// itemset's entries come out in ascending replicate order — the order the
// bound evaluation has always summed in. off[id+2] first counts id; after
// the prefix sums off[id+1] is the start of id's run, and filling advances
// it to the run's end, which leaves off[id] at the start.
func (col *collection) group() {
	n := col.numItemsets()
	off := make([]int, n+2)
	for _, e := range col.entries {
		off[e.id+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	grouped := make([]entry, len(col.entries))
	for _, e := range col.entries {
		grouped[off[e.id+1]] = e
		off[e.id+1]++
	}
	col.entries = grouped
	col.off = off[:n+1]
}

// softCapFor returns the entry volume at which pruning kicks in; it must
// exceed Delta^2 * eps / 4 for the prune justification above to hold, which
// 2M does for every Delta up to ~28000 at eps = 0.01.
func softCapFor(delta int) int {
	limit := 2_000_000
	if need := delta * delta; limit < need {
		limit = need
	}
	return limit
}

// prune raises pruneFloor until at most target entries remain, dropping the
// entries below it in place. Surviving itemsets are re-inserted in id order,
// so the rebuilt table assigns the same relative ids a from-scratch merge at
// the new floor would — the prune schedule stays deterministic for every
// worker count. Pruning is rare (it fires only when the entry volume crosses
// the multi-million soft cap), so the rebuild allocates a fresh table. It
// runs during the merge, on entries still in merge order.
func (col *collection) prune(target int) {
	// Histogram of entry supports to pick the new floor.
	hist := make([]int, col.maxSup+2)
	for _, e := range col.entries {
		hist[e.sup]++
	}
	newFloor := col.pruneFloor
	remaining := len(col.entries)
	for remaining > target {
		remaining -= hist[newFloor]
		newFloor++
	}
	// newID[id] becomes the surviving itemset's id in the rebuilt table: -1
	// marks an itemset with no entry left, 0 one still waiting for its id.
	newID := make([]int32, col.index.Len())
	for i := range newID {
		newID[i] = -1
	}
	for _, e := range col.entries {
		if int(e.sup) >= newFloor {
			newID[e.id] = 0
		}
	}
	index := mining.NewItemsetTable(col.k, col.index.Len()/2)
	for id, nid := range newID {
		if nid == 0 {
			got, _ := index.Insert(col.index.Items(id))
			newID[id] = int32(got)
		}
	}
	kept := col.entries[:0]
	for _, e := range col.entries {
		if int(e.sup) >= newFloor {
			e.id = newID[e.id]
			kept = append(kept, e)
		}
	}
	col.index = index
	col.entries = kept
	col.pruneFloor = newFloor
}

// FindPoissonThreshold runs Algorithm 1 against the given null model —
// usually the paper's independence model, but any Model works, including
// swap randomization (the adaptation the paper's Section 1.1 anticipates).
func FindPoissonThreshold(m randmodel.Model, cfg Config) (*Result, error) {
	return FindPoissonThresholdCtx(context.Background(), m, cfg)
}

// FindPoissonThresholdCtx is FindPoissonThreshold with cooperative
// cancellation. The context is checked at replicate boundaries of the Monte
// Carlo loop (the only unbounded stage); once canceled the call returns
// ctx.Err() promptly and no partial Result ever escapes, so cancellation can
// never perturb the determinism of results that do complete.
func FindPoissonThresholdCtx(ctx context.Context, m randmodel.Model, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if im, ok := m.(randmodel.IndependentModel); ok {
		if err := im.Validate(); err != nil {
			return nil, err
		}
	}
	// Per-job model state is built here, inside the job, once for every
	// halving and executor.
	m = randmodel.Prepare(m)

	// Per-replicate seeds: deterministic regeneration without retaining the
	// datasets lets the floor drop by re-mining instead of re-storing.
	root := stats.NewRNG(cfg.Seed)
	seeds := make([]uint64, cfg.Delta)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}

	sTilde := maxExpectedSupport(m, cfg.K)
	res := &Result{Delta: cfg.Delta}
	epsQuarter := cfg.Epsilon / 4

	for halving := 0; ; halving++ {
		if halving > maxHalvings {
			return nil, fmt.Errorf("montecarlo: exceeded %d s-tilde halvings", maxHalvings)
		}
		floor := floorOf(sTilde)
		hctx, hsp := trace.Start(ctx, "montecarlo.halving",
			trace.Int("halving", halving), trace.Int("floor", floor))
		col, minPs, err := mineAll(hctx, m, seeds, floor, cfg)
		if err != nil {
			hsp.End(trace.String("outcome", "error"))
			return nil, err
		}
		// Grouped once mineAll has returned, so the range buffers it
		// recycled are garbage by then.
		col.group()
		// Each halving re-collects; the accepted halving's distribution (the
		// one whose floor the caller's s_min will sit above) is what persists.
		if cfg.CollectMinPs {
			res.MinPs = minPs
			res.MinPFloor = floor
		}
		if col.numEntries() == 0 {
			// W empty: no k-itemset ever reaches the floor. At floor 1 the
			// Poisson approximation is vacuous (Q̂ is 0 a.s.); accept 1.
			if floor <= 1 {
				res.SMin = 1
				res.STilde = sTilde
				res.Floor = floor
				res.SMax = floor + 1
				finishResult(res, col)
				hsp.End(trace.String("outcome", "accept-floor"))
				return res, nil
			}
			sTilde /= 2
			hsp.End(trace.String("outcome", "halve"))
			continue
		}
		ev := newEvaluator(col, cfg.Delta)
		// effFloor is the lowest support whose bound can still be evaluated
		// exactly; levels below it were adaptively pruned, which is only
		// done when their bound provably exceeds eps/4 (see collection).
		effFloor := col.pruneFloor
		if effFloor == floor {
			// Capped evaluation: we only need to know on which side of
			// eps/4 the bound at the floor lies, and the partial sum
			// certifies "above" after a handful of terms even when the
			// floor-level live set is enormous.
			bFloor, floorExceeded := ev.evalCapped(floor, epsQuarter)
			res.Curve = append(res.Curve, bFloor)
			if !floorExceeded && bFloor.B1+bFloor.B2 <= epsQuarter {
				// Even s-tilde satisfies the bound; the true threshold is
				// lower.
				if floor <= 1 {
					res.SMin = 1
					res.STilde = sTilde
					res.Floor = floor
					res.SMax = col.maxSup + 1
					finishResult(res, col)
					hsp.End(trace.String("outcome", "accept-floor"))
					return res, nil
				}
				sTilde /= 2
				res.Curve = res.Curve[:0]
				hsp.End(trace.String("outcome", "halve"))
				continue
			}
		}
		// Search (effFloor, smax] for the crossing, galloping down from smax.
		smax := col.maxSup + 1
		_, ssp := trace.Start(hctx, "montecarlo.search",
			trace.Int("floor", effFloor), trace.Int("smax", smax))
		sMin := searchCrossing(ev, effFloor, smax, epsQuarter, res)
		ssp.End(trace.Int("smin", sMin), trace.Int("evaluations", len(res.Curve)))
		res.SMin = sMin
		res.STilde = sTilde
		res.Floor = effFloor
		res.SMax = smax
		finishResult(res, col)
		hsp.End(trace.String("outcome", "done"), trace.Int("smin", sMin))
		return res, nil
	}
}

// finishResult installs the lambda support pool and sorts the curve.
func finishResult(res *Result, col *collection) {
	all := make([]int, len(col.entries))
	for i, e := range col.entries {
		all[i] = int(e.sup)
	}
	sort.Ints(all)
	res.allSupports = all
	res.NumItemsets = col.numItemsets()
	sort.Slice(res.Curve, func(i, j int) bool { return res.Curve[i].S < res.Curve[j].S })
}

// searchCrossing finds min{s in (floor, smax] : b1+b2 <= target}. The bound
// is non-increasing in s and known to exceed target at floor. Evaluations
// are appended to res.Curve.
func searchCrossing(ev *evaluator, floor, smax int, target float64, res *Result) int {
	check := func(s int) bool {
		bp, exceeded := ev.evalCapped(s, target)
		res.Curve = append(res.Curve, bp)
		return !exceeded && bp.B1+bp.B2 <= target
	}
	if !check(smax) {
		// Even the top support fails (possible when max support recurs
		// across many replicates); by convention return smax+1, where Q̂ is
		// 0 a.s. and the bound is 0.
		return smax + 1
	}
	// Gallop downward from smax: find lo with bound > target.
	lo, hi := floor, smax // invariant: fails at lo, holds at hi
	step := 1
	s := smax - 1
	for s > floor {
		if !check(s) {
			lo = s
			break
		}
		hi = s
		step *= 2
		s -= step
	}
	if s <= floor {
		lo = floor
	}
	// Binary search in (lo, hi).
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if check(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// floorOf converts s-tilde into the integer mining threshold.
func floorOf(sTilde float64) int {
	f := int(math.Ceil(sTilde))
	if f < 1 {
		f = 1
	}
	return f
}

// maxExpectedSupport returns the paper's s-tilde: t times the product of the
// k largest item frequencies, the largest expected support of any k-itemset
// under the null model.
func maxExpectedSupport(m randmodel.Model, k int) float64 {
	freqs := m.ItemFrequencies()
	if k > len(freqs) {
		return 0
	}
	top := append([]float64(nil), freqs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(top)))
	prod := float64(m.NumTransactions())
	for i := 0; i < k; i++ {
		prod *= top[i]
	}
	return prod
}

// rangeResult carries one range's partial (or the error that produced none)
// from an executor goroutine to the merge, together with the free-list
// buffer the range was handed (p itself unless the runner returned a
// partial of its own).
type rangeResult struct {
	p   *Partial
	out *Partial
	err error
}

// mineAll mines the k-itemsets with support >= floor from each replicate,
// pruning adaptively (see collection) when the entry volume exceeds the
// Delta-dependent soft cap, and returns the collection in merge order. The
// replicates are partitioned into explicit ReplicateRange jobs executed
// concurrently — in-process through MineRange when cfg.Runner is nil (range
// size 1, so the adaptive floor shortcut works per replicate), or through
// cfg.Runner (typically an HTTP fan-out over remote sigfimd workers)
// otherwise. Either way the merge consumes partials strictly in
// replicate-index order, so the collection — including the prune schedule —
// is identical for any worker count, range size, executor, and partial
// arrival order.
//
// The local path is the hot loop of the whole system, and it is
// allocation-free in steady state: each worker keeps one RangeScratch
// (pooled Vertical whose column backing arrays are reused across replicates
// via GenerateReusing, plus a mining.Scratch reused across mines), every
// dispatch — local or through a runner — fills a flat Partial recycled
// through one free list (RangeRequest.Out), and the merge appends into the
// collection's flat entry slice through its string-free table.
// Under cfg.CollectMinPs, mineAll also returns the per-replicate minimum
// marginal p-values (one per seed, replicate order); otherwise the second
// return is nil.
func mineAll(ctx context.Context, m randmodel.Model, seeds []uint64, floor int, cfg Config) (*collection, []float64, error) {
	k := cfg.K
	col := newCollection(k, floor)
	softCap := softCapFor(len(seeds))
	var minPs []float64
	if cfg.CollectMinPs {
		minPs = make([]float64, len(seeds))
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Split the budget: replicate-level parallelism soaks up workers first;
	// any surplus parallelizes each replicate's mine.
	intra := 1
	if workers > len(seeds) {
		intra = workers / len(seeds)
		workers = len(seeds)
	}

	// Partition the replicates into ranges. Local execution uses ranges of
	// one replicate — exactly the historical per-replicate loop — while a
	// Runner amortizes its per-dispatch overhead over larger ranges, sized so
	// every in-flight slot sees a few ranges (work stealing across uneven
	// workers) unless pinned by RangeSize.
	inflight := workers
	rangeSize := 1
	if cfg.Runner != nil {
		inflight = cfg.RangeInflight
		if inflight < 1 {
			inflight = 4
		}
		rangeSize = cfg.RangeSize
		if rangeSize < 1 {
			rangeSize = (len(seeds) + 4*inflight - 1) / (4 * inflight)
			if rangeSize < 1 {
				rangeSize = 1
			}
		}
	}
	ranges := splitRanges(len(seeds), rangeSize)
	if len(ranges) < inflight {
		inflight = len(ranges)
	}

	// The montecarlo.mine span covers the whole fan-out: its children are
	// the per-range fabric spans (remote execution) and any prune spans; its
	// closing attrs aggregate where the wall time went. traced gates the
	// measurement work so an untraced run touches the clock no more than
	// before.
	traced := trace.Enabled(ctx)
	ctx, msp := trace.Start(ctx, "montecarlo.mine",
		trace.Int("replicates", len(seeds)), trace.Int("floor", floor),
		trace.Int("range_size", rangeSize), trace.Int("ranges", len(ranges)),
		trace.Int("inflight", inflight))
	var genNanos, mineNanos atomic.Int64

	// Executors mine ranges at the floor known when the range was claimed;
	// the merge re-filters against the current (possibly higher) prune
	// floor. minFloor is read atomically as a mining shortcut only —
	// correctness never depends on it.
	var minFloor atomic.Int64
	minFloor.Store(int64(floor))

	// Internal cancellation: when the merge returns early (runner failure,
	// entry budget, caller cancellation) the executors stop claiming ranges
	// and any in-flight runner call is canceled.
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	outputs := make([]chan rangeResult, len(ranges))
	for i := range outputs {
		outputs[i] = make(chan rangeResult, 1)
	}
	// Consumed partial buffers return here for any executor to reuse;
	// capacity bounds the number of buffers in flight (executors mining +
	// merge lag).
	free := make(chan *Partial, 2*inflight+1)
	var next atomic.Int64
	for w := 0; w < inflight; w++ {
		go func() {
			run := cfg.Runner
			if run == nil {
				scr := NewRangeScratch()
				scr.Timing = traced
				run = func(ctx context.Context, req RangeRequest) (*Partial, error) {
					g0, m0 := scr.GenNanos, scr.MineNanos
					err := MineRange(ctx, m, req, scr, req.Out)
					if traced {
						genNanos.Add(scr.GenNanos - g0)
						mineNanos.Add(scr.MineNanos - m0)
					}
					return req.Out, err
				}
			}
			for {
				// Cancellation checkpoint: stop claiming ranges once the
				// context dies. Ranges already claimed still complete and
				// deposit into their (buffered) output slot, so no goroutine
				// ever blocks on an abandoned merge.
				if ctx.Err() != nil {
					return
				}
				idx := int(next.Add(1)) - 1
				if idx >= len(ranges) {
					return
				}
				rg := ranges[idx]
				req := RangeRequest{
					Range:     rg,
					K:         k,
					Floor:     int(minFloor.Load()),
					Algorithm: cfg.Algorithm,
					Seeds:     seeds[rg.From:rg.To],
					Workers:   intra,
				}
				if cfg.CollectMinPs {
					// The min-p statistic ranges over the itemsets reaching
					// the mining floor, so the floor must be the same for
					// every range regardless of scheduling: pin it to the
					// halving's base floor instead of the racy raised-floor
					// shortcut (the merge re-filters either way).
					req.Floor = floor
					req.StatFloor = floor
				}
				select {
				case req.Out = <-free:
				default:
					req.Out = &Partial{}
				}
				p, err := run(ctx, req)
				if err == nil {
					err = p.Validate(req)
				}
				outputs[idx] <- rangeResult{p: p, out: req.Out, err: err}
			}
		}()
	}

	// stall/maxStall accumulate how long the ordered merge sat waiting for
	// the next-in-order range — the straggler signal a trace makes visible.
	var stall, maxStall time.Duration
	for idx, rg := range ranges {
		var res rangeResult
		var waitStart time.Time
		if traced {
			waitStart = time.Now()
		}
		select {
		case res = <-outputs[idx]:
		case <-ctx.Done():
			// Range boundary cancellation: abandon the merge without
			// touching the partially built collection again. Executors drain
			// themselves via the ctx check above.
			msp.End(trace.String("outcome", "canceled"))
			return nil, nil, ctx.Err()
		}
		if traced {
			w := time.Since(waitStart)
			stall += w
			if w > maxStall {
				maxStall = w
			}
		}
		if res.err != nil {
			msp.End(trace.String("outcome", "error"))
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("montecarlo: replicate range [%d,%d): %w", rg.From, rg.To, res.err)
		}
		if cfg.CollectMinPs {
			copy(minPs[rg.From:rg.To], res.p.MinPs)
		}
		if err := mergePartial(ctx, col, res.p, k, softCap, floor, len(seeds), cfg, func(f int) {
			minFloor.Store(int64(f))
		}); err != nil {
			msp.End(trace.String("outcome", "error"))
			return nil, nil, err
		}
		select {
		case free <- res.out:
		default:
		}
	}
	msp.End(trace.String("outcome", "ok"), trace.Int("entries", col.numEntries()),
		trace.Int("generate_ms", int(genNanos.Load()/1e6)),
		trace.Int("mine_ms", int(mineNanos.Load()/1e6)),
		trace.Int("merge_wait_ms", int(stall.Milliseconds())),
		trace.Int("merge_wait_max_ms", int(maxStall.Milliseconds())))
	return col, minPs, nil
}
