package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
	"sigfim/internal/trace"
)

// The replicate fabric: Algorithm 1's Delta Monte Carlo replicates are
// embarrassingly parallel and deterministic per seed, so the replicate loop
// is expressed as explicit "replicate range -> serializable partial" jobs. A
// RangeRequest names a half-open range of replicate indices together with
// everything needed to mine it (per-replicate seeds, itemset size, mining
// floor, algorithm); MineRange executes one request in-process and fills a
// Partial, a flat, portable encoding of every replicate's mined (itemset,
// support) pairs. The local worker pool and remote sigfimd workers run this
// exact code path — the only difference is who calls MineRange — and the
// coordinator merges partials strictly in replicate-index order, so the
// merged collection (including its adaptive prune schedule) is bit-identical
// to a single-process run no matter how many workers executed the ranges, in
// what order their partials arrived, or whether a failed range was retried
// elsewhere.

// ReplicateRange is a half-open range [From, To) of replicate indices.
type ReplicateRange struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Len returns the number of replicates in the range.
func (r ReplicateRange) Len() int { return r.To - r.From }

// RangeRequest fully specifies the mining of one replicate range. Two
// requests with the same Range, K, Floor, Algorithm, and Seeds produce
// value-identical partials on any executor — Workers is an intra-mine
// parallelism hint that cannot influence the result.
type RangeRequest struct {
	// Range selects the replicate indices [From, To).
	Range ReplicateRange
	// K is the itemset size under study.
	K int
	// Floor is the integer mining threshold: every itemset with support >=
	// Floor in a replicate is reported. The merge re-filters against its own
	// (possibly higher) prune floor, so any Floor at or below the merge-time
	// prune floor yields the same merged collection.
	Floor int
	// Algorithm selects the replicate miner.
	Algorithm mining.Algorithm
	// Seeds holds one RNG seed per replicate in the range (len == Range.Len());
	// Seeds[i] drives replicate Range.From+i. Replicate index i always
	// consumes seed i of the root stream, so the RNG substream a replicate
	// sees never depends on which worker executes it.
	Seeds []uint64
	// Workers bounds the intra-mine parallelism of each replicate's mine
	// (0 = executor's choice). Results are identical for every value.
	Workers int
	// StatFloor, when positive, additionally collects the Westfall-Young
	// statistic: for each replicate, the minimum marginal Binomial p-value
	// over the mined itemsets with support >= StatFloor (Partial.MinPs).
	// Must be >= Floor, since itemsets below the mining floor are never
	// emitted; requests that collect pin Floor so the two coincide. The
	// statistic is a plain minimum of exactly computed p-values, so it is
	// bit-identical on every executor, for every worker count and algorithm.
	StatFloor int
	// Out, when non-nil, is a recycled partial the executor may reset, fill
	// and return instead of allocating one. mineAll hands every dispatch a
	// buffer from its free list and takes it back once the range is merged,
	// so the same backing arrays serve range after range. An executor that
	// returns a partial of its own keeps ownership of it, and Out goes back
	// to the free list unused. Out never influences what is mined.
	Out *Partial
}

// validate checks a request's internal consistency.
func (req RangeRequest) validate() error {
	if req.Range.From < 0 || req.Range.To <= req.Range.From {
		return fmt.Errorf("montecarlo: invalid replicate range [%d,%d)", req.Range.From, req.Range.To)
	}
	if len(req.Seeds) != req.Range.Len() {
		return fmt.Errorf("montecarlo: range [%d,%d) carries %d seeds, want %d",
			req.Range.From, req.Range.To, len(req.Seeds), req.Range.Len())
	}
	if req.K < 1 {
		return fmt.Errorf("montecarlo: K must be >= 1, got %d", req.K)
	}
	if req.Floor < 1 {
		return fmt.Errorf("montecarlo: mining floor must be >= 1, got %d", req.Floor)
	}
	if req.StatFloor < 0 || (req.StatFloor > 0 && req.StatFloor < req.Floor) {
		return fmt.Errorf("montecarlo: stat floor %d must be 0 or >= mining floor %d", req.StatFloor, req.Floor)
	}
	return nil
}

// Partial is the serializable product of mining one replicate range: for
// each replicate, the k-itemsets whose support reached the mining floor, in
// the deterministic emission order of the mining algorithm. The encoding is
// flat and string-free so partials are cheap to build, merge, and ship as
// JSON between sigfimd processes.
type Partial struct {
	// From and To echo the replicate range [From, To).
	From int `json:"from"`
	To   int `json:"to"`
	// Floor is the mining threshold the range was mined at.
	Floor int `json:"floor"`
	// K is the itemset size.
	K int `json:"k"`
	// Counts[i] is the number of itemsets mined from replicate From+i.
	Counts []int32 `json:"counts"`
	// Items holds K item ids per itemset, concatenated across replicates in
	// range order; Sups holds the parallel supports.
	Items []uint32 `json:"items,omitempty"`
	Sups  []int32  `json:"sups,omitempty"`
	// MinPs, present exactly when the request carried a StatFloor, holds one
	// value per replicate: the minimum marginal Binomial p-value over the
	// replicate's itemsets with support >= StatFloor, or MinPNone when no
	// itemset reached it. float64 values survive the JSON round trip exactly
	// (encoding/json emits the shortest form that decodes to the same bits),
	// so shipping MinPs between sigfimd processes preserves the bit-identity
	// of the Westfall-Young null distribution.
	MinPs []float64 `json:"min_ps,omitempty"`
}

// MinPNone marks a replicate in which no itemset reached the stat floor: it
// compares above every genuine p-value, so the replicate counts against no
// rejection (the family minimum over an empty set is vacuously large).
const MinPNone = 2.0

// reset prepares a (possibly recycled) partial for a new range, keeping the
// backing arrays.
func (p *Partial) reset(req RangeRequest) {
	p.From = req.Range.From
	p.To = req.Range.To
	p.Floor = req.Floor
	p.K = req.K
	p.Counts = p.Counts[:0]
	p.Items = p.Items[:0]
	p.Sups = p.Sups[:0]
	p.MinPs = p.MinPs[:0]
}

// ErrInvalidPartial is wrapped by every Validate failure, so a runner can
// classify a malformed partial (eligible for retry on another worker) apart
// from an execution error with errors.Is.
var ErrInvalidPartial = errors.New("montecarlo: invalid partial")

// Validate checks a partial's internal consistency against the request it
// answers. The coordinator runs it on every partial before merging, so a
// malformed response from a remote worker fails the range loudly (and
// retryably — all errors wrap ErrInvalidPartial) instead of corrupting the
// collection.
func (p *Partial) Validate(req RangeRequest) error {
	if p.From != req.Range.From || p.To != req.Range.To {
		return fmt.Errorf("%w: covers [%d,%d), want [%d,%d)",
			ErrInvalidPartial, p.From, p.To, req.Range.From, req.Range.To)
	}
	if p.K != req.K {
		return fmt.Errorf("%w: mined %d-itemsets, want %d", ErrInvalidPartial, p.K, req.K)
	}
	if p.Floor > req.Floor {
		// A higher floor silently drops entries the merge still needs; a
		// lower one only adds entries the merge filters out.
		return fmt.Errorf("%w: mined at floor %d above requested floor %d", ErrInvalidPartial, p.Floor, req.Floor)
	}
	if len(p.Counts) != p.To-p.From {
		return fmt.Errorf("%w: %d replicate counts, want %d", ErrInvalidPartial, len(p.Counts), p.To-p.From)
	}
	var total int
	for i, c := range p.Counts {
		if c < 0 {
			return fmt.Errorf("%w: negative itemset count %d at replicate %d", ErrInvalidPartial, c, p.From+i)
		}
		total += int(c)
	}
	if len(p.Sups) != total {
		return fmt.Errorf("%w: %d supports, want %d", ErrInvalidPartial, len(p.Sups), total)
	}
	if len(p.Items) != total*p.K {
		return fmt.Errorf("%w: %d item ids, want %d", ErrInvalidPartial, len(p.Items), total*p.K)
	}
	if req.StatFloor > 0 {
		if len(p.MinPs) != p.To-p.From {
			return fmt.Errorf("%w: %d replicate min p-values, want %d", ErrInvalidPartial, len(p.MinPs), p.To-p.From)
		}
		for i, v := range p.MinPs {
			if !(v >= 0 && v <= 1) && v != MinPNone {
				return fmt.Errorf("%w: min p-value %v at replicate %d outside [0,1]", ErrInvalidPartial, v, p.From+i)
			}
		}
	} else if len(p.MinPs) != 0 {
		return fmt.Errorf("%w: %d min p-values in a range that requested none", ErrInvalidPartial, len(p.MinPs))
	}
	return nil
}

// RangeRunner executes one replicate-range request somewhere — typically by
// POSTing it to a remote sigfimd worker — and returns the mined partial,
// normally req.Out filled in place (see RangeRequest.Out): the coordinator's
// free list of partial buffers then serves local and remote executors
// alike. The partial must stay untouched by the runner until the merge is
// done with it; a runner that fans one range out to several attempts lets
// only the winning attempt write into req.Out. A runner must be safe for
// concurrent calls; it is invoked once per range, so any retry policy
// (other workers, local fallback) lives inside the runner. Returning an
// error fails the whole estimate.
type RangeRunner func(ctx context.Context, req RangeRequest) (*Partial, error)

// RangeScratch bundles the pooled per-worker state MineRange reuses across
// calls: the mining scratch (DFS and tree buffers), the replicate Vertical
// (column backing arrays refilled in place) and the replicate generator.
// One scratch must not be shared by concurrent MineRange calls.
type RangeScratch struct {
	scratch *mining.Scratch
	v       *dataset.Vertical
	rng     stats.RNG // reseeded for every replicate

	// Timing, when set, makes MineRange split each replicate's wall time
	// into dataset generation (GenNanos) versus mining (MineNanos),
	// accumulated across calls. Pure observation for tracing: it reads the
	// clock twice per replicate and can never influence the mined partial.
	Timing    bool
	GenNanos  int64
	MineNanos int64
}

// NewRangeScratch returns an empty scratch.
func NewRangeScratch() *RangeScratch {
	return &RangeScratch{scratch: mining.NewScratch()}
}

// MineRange executes one replicate range in-process against the given null
// model, appending each replicate's mined itemsets to out. It is the single
// code path behind both the local worker pool and the sigfimd worker
// endpoint: replicate Range.From+i is generated from Seeds[i] and mined at
// Floor with the requested algorithm, exactly as the single-process loop
// does. scr may be nil (a fresh scratch is used); out is reset first and its
// backing arrays are reused. The context is checked at replicate boundaries.
func MineRange(ctx context.Context, m randmodel.Model, req RangeRequest, scr *RangeScratch, out *Partial) error {
	if err := req.validate(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if scr == nil {
		scr = NewRangeScratch()
	}
	intra := req.Workers
	if intra < 1 {
		intra = 1
	}
	// Westfall-Young collection: the per-replicate minimum marginal p-value
	// needs the null model's marginals, which both shipped models expose
	// identically (item frequencies and transaction count are preserved by
	// construction under either null). The minimum is order-independent, so
	// the emission order of the mining algorithm cannot influence it.
	var statFreqs []float64
	statT := 0
	if req.StatFloor > 0 {
		statFreqs = m.ItemFrequencies()
		statT = m.NumTransactions()
	}
	out.reset(req)
	for i := 0; i < req.Range.Len(); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var t0, t1 time.Time
		if scr.Timing {
			t0 = time.Now()
		}
		scr.rng.Reseed(req.Seeds[i])
		scr.v = randmodel.GenerateReusing(m, &scr.rng, scr.v)
		if scr.Timing {
			t1 = time.Now()
			scr.GenNanos += t1.Sub(t0).Nanoseconds()
		}
		before := len(out.Sups)
		visit := func(items mining.Itemset, sup int) {
			out.Items = append(out.Items, items...)
			out.Sups = append(out.Sups, int32(sup))
		}
		minP := MinPNone
		if req.StatFloor > 0 {
			visit = func(items mining.Itemset, sup int) {
				out.Items = append(out.Items, items...)
				out.Sups = append(out.Sups, int32(sup))
				if sup >= req.StatFloor {
					fX := 1.0
					for _, it := range items {
						fX *= statFreqs[it]
					}
					if p := (stats.Binomial{N: statT, P: fX}).UpperTail(sup); p < minP {
						minP = p
					}
				}
			}
		}
		mining.VisitKAlgoScratch(scr.v, req.K, req.Floor, intra, req.Algorithm, scr.scratch, visit)
		if scr.Timing {
			scr.MineNanos += time.Since(t1).Nanoseconds()
		}
		out.Counts = append(out.Counts, int32(len(out.Sups)-before))
		if req.StatFloor > 0 {
			out.MinPs = append(out.MinPs, minP)
		}
	}
	return nil
}

// splitRanges partitions [0, delta) into consecutive ranges of at most size
// replicates.
func splitRanges(delta, size int) []ReplicateRange {
	if size < 1 {
		size = 1
	}
	out := make([]ReplicateRange, 0, (delta+size-1)/size)
	for from := 0; from < delta; from += size {
		to := from + size
		if to > delta {
			to = delta
		}
		out = append(out, ReplicateRange{From: from, To: to})
	}
	return out
}

// mergePartial folds one validated partial into the collection, replicate by
// replicate in range order: entries below the current prune floor are
// dropped, the soft cap triggers adaptive pruning, the entry budget is
// enforced, and progress fires once per replicate — the same per-replicate
// schedule as a single-process run, so the collection is bit-identical
// regardless of how replicates were grouped into ranges. minFloor receives
// the raised prune floor as a mining shortcut for ranges not yet claimed.
// Each adaptive prune records a montecarlo.prune span when ctx carries a
// trace recorder. Once the collection's entry slice and table have grown,
// a merge allocates nothing.
func mergePartial(ctx context.Context, col *collection, p *Partial, k, softCap, floor, total int, cfg Config, raiseFloor func(int)) error {
	off := 0
	for ri := 0; ri < p.To-p.From; ri++ {
		rep := p.From + ri
		cnt := int(p.Counts[ri])
		for i := off; i < off+cnt; i++ {
			sup := int(p.Sups[i])
			if sup < col.pruneFloor {
				continue
			}
			id, _ := col.index.Insert(p.Items[i*k : (i+1)*k])
			if len(col.entries) == cap(col.entries) {
				col.reserve(rep, total, softCap)
			}
			col.entries = append(col.entries, entry{id: int32(id), rep: int32(rep), sup: int32(sup)})
			if sup > col.maxSup {
				col.maxSup = sup
			}
		}
		off += cnt
		if col.numEntries() > softCap {
			entriesBefore := col.numEntries()
			pruneStart := time.Now()
			col.prune(softCap / 2)
			raiseFloor(col.pruneFloor)
			trace.Add(ctx, "montecarlo.prune", pruneStart, time.Since(pruneStart),
				trace.Int("replicate", rep), trace.Int("entries_before", entriesBefore),
				trace.Int("entries_after", col.numEntries()), trace.Int("floor_after", col.pruneFloor))
		}
		if col.numEntries() > cfg.MaxEntries {
			return fmt.Errorf("montecarlo: entry budget %d exceeded at replicate %d (floor %d too low)", cfg.MaxEntries, rep, floor)
		}
		if cfg.Progress != nil {
			cfg.Progress(rep+1, total)
		}
	}
	return nil
}
