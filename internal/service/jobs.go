package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sigfim"
	"sigfim/internal/trace"
)

// Sentinel error classes; the HTTP layer maps them to status codes.
var (
	// ErrBadRequest marks client errors in a request body or parameter (400).
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound marks lookups of unknown datasets or jobs (404).
	ErrNotFound = errors.New("not found")
	// ErrConflict marks attempts to re-register a dataset name with
	// different content (409).
	ErrConflict = errors.New("conflict")
	// ErrQueueFull is the job queue's backpressure signal (503): the client
	// should retry later rather than pile more work onto a saturated pool.
	ErrQueueFull = errors.New("job queue full")
	// ErrShuttingDown rejects submissions during graceful shutdown (503).
	ErrShuttingDown = errors.New("server shutting down")
)

// Job kinds.
const (
	// KindSignificant runs the full methodology (Dataset.SignificantCtx) and
	// stores the complete sigfim.Report.
	KindSignificant = "significant"
	// KindSMin runs Algorithm 1 alone (Dataset.FindSMinCtx) and stores the
	// estimated Poisson threshold.
	KindSMin = "smin"
	// KindClosed mines the closed frequent itemsets at MinSupport
	// (Dataset.ClosedItemsets) and stores an ItemsetsResult.
	KindClosed = "closed"
	// KindMaximal mines the maximal frequent itemsets at MinSupport
	// (Dataset.MaximalItemsets) and stores an ItemsetsResult.
	KindMaximal = "maximal"
	// KindRules mines association rules (Dataset.Rules, or
	// Dataset.SignificantRules when Config.Beta is set) and stores a
	// RulesResult.
	KindRules = "rules"
)

// jobKinds enumerates every accepted kind, in the order error messages and
// documentation list them.
var jobKinds = []string{KindSignificant, KindSMin, KindClosed, KindMaximal, KindRules}

// JobState is the lifecycle state of a job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final: done, failed, or canceled.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`
	// Kind is one of the Kind* constants: "significant", "smin", "closed",
	// "maximal", or "rules".
	Kind string `json:"kind"`
	// K is the itemset size under study (significant and smin jobs only;
	// the mining kinds take MinSupport instead and require K to be absent).
	K int `json:"k,omitempty"`
	// MinSupport is the absolute support threshold of closed, maximal, and
	// rules jobs (>= 1); the statistical kinds derive their threshold and
	// require it to be absent.
	MinSupport int `json:"min_support,omitempty"`
	// MinConfidence keeps only rules with at least this confidence (rules
	// jobs; 0 keeps all).
	MinConfidence float64 `json:"min_confidence,omitempty"`
	// MaxLen caps the itemset size rules are generated from (rules jobs;
	// 0 = the library default of 4).
	MaxLen int `json:"max_len,omitempty"`
	// Config carries the full analysis configuration; nil selects the
	// paper's defaults. Field names follow sigfim.Config (Alpha, Beta,
	// Epsilon, Delta, Seed, Correction, MaxPatterns, SwapNull,
	// SwapProposalsPerOccurrence, Workers, Algorithm; the last is checked
	// and otherwise ignored), and an unknown field is a 400 that names it.
	// A non-empty Correction adds the Procedure 1 baseline. Workers is
	// capped at the server's GOMAXPROCS. Rules jobs read only Beta
	// (> 0 switches to SignificantRules at that FDR budget); closed and
	// maximal jobs ignore Config entirely.
	Config *sigfim.Config `json:"config,omitempty"`
}

// Progress reports how far a running job's Monte Carlo stage has advanced.
type Progress struct {
	// Done counts replicates merged so far; Total is the configured Delta.
	// An internal restart (s-tilde halving) resets Done to zero.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobStatus is the public view of a job, returned by the submit, get, and
// cancel endpoints. Result is the last field: the server encodes the rest
// and appends the stored result bytes as they are (see appendStatusHead).
type JobStatus struct {
	ID          string          `json:"id"`
	State       JobState        `json:"state"`
	Dataset     string          `json:"dataset"`
	DatasetHash string          `json:"dataset_hash"`
	Kind        string          `json:"kind"`
	K           int             `json:"k"`
	CacheHit    bool            `json:"cache_hit"`
	Progress    Progress        `json:"progress"`
	Error       string          `json:"error,omitempty"`
	CreatedAt   time.Time       `json:"created_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// SMinResult is the stored result payload of a KindSMin job.
type SMinResult struct {
	K    int `json:"k"`
	SMin int `json:"s_min"`
}

// ItemsetsResult is the stored result payload of KindClosed and KindMaximal
// jobs. Itemsets carries exactly the patterns the corresponding library call
// (Dataset.ClosedItemsets or Dataset.MaximalItemsets) returns, in the same
// order, so the job result is bit-identical to a direct call marshaled the
// same way.
type ItemsetsResult struct {
	MinSupport  int              `json:"min_support"`
	NumItemsets int              `json:"num_itemsets"`
	Itemsets    []sigfim.Pattern `json:"itemsets"`
}

// RulesResult is the stored result payload of a KindRules job. Beta echoes
// the FDR budget when the rules were filtered through SignificantRules; zero
// means the unfiltered Dataset.Rules output.
type RulesResult struct {
	MinSupport    int                      `json:"min_support"`
	MinConfidence float64                  `json:"min_confidence"`
	MaxLen        int                      `json:"max_len"`
	Beta          float64                  `json:"beta"`
	NumRules      int                      `json:"num_rules"`
	Rules         []sigfim.AssociationRule `json:"rules"`
}

// job is the engine's mutable job record. Mutable fields are guarded by the
// engine mutex except the progress counters, which the pipeline's merge
// goroutine updates through atomics. Engine.moveLocked alone writes state
// and the timestamps.
type job struct {
	id       string
	req      JobRequest
	ds       *sigfim.Dataset
	dsHash   string
	cacheKey string

	state      JobState
	cacheHit   bool
	result     []byte
	errMsg     string
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	cancel     context.CancelFunc

	progressDone  atomic.Int64
	progressTotal atomic.Int64
}

// EngineCounters are the job counters exposed by /v1/stats, summed from the
// engine's job tally: Submitted counts every accepted job, Queued and
// InFlight the jobs now queued and running, Completed, Failed and Canceled
// the jobs that ended so. CacheHits is the result cache's hit count.
type EngineCounters struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	CacheHits int64 `json:"cache_hits"`
	InFlight  int64 `json:"in_flight"`
	Queued    int64 `json:"queued"`
}

// tallyKey names one cell of an engine's job tally.
type tallyKey struct {
	kind  string
	state JobState
}

// jobTally counts an engine's jobs by kind and state. Every accepted job
// sits in exactly one cell, so the live states (queued, running) read as
// gauges and the terminal ones as lifetime totals: evicting a finished
// record leaves the tally as it is.
type jobTally map[tallyKey]int64

// counters sums the tally into the /v1/stats job counters; cacheHits is the
// result cache's own hit count.
func (t jobTally) counters(cacheHits uint64) EngineCounters {
	c := EngineCounters{CacheHits: int64(cacheHits)}
	for key, n := range t {
		c.Submitted += n
		switch key.state {
		case StateQueued:
			c.Queued += n
		case StateRunning:
			c.InFlight += n
		case StateDone:
			c.Completed += n
		case StateFailed:
			c.Failed += n
		case StateCanceled:
			c.Canceled += n
		}
	}
	return c
}

// finishedKinds lists, sorted, the job kinds with at least one terminal job.
func (t jobTally) finishedKinds() []string {
	var kinds []string
	for key := range t {
		if key.state.Terminal() && !slices.Contains(kinds, key.kind) {
			kinds = append(kinds, key.kind)
		}
	}
	slices.Sort(kinds)
	return kinds
}

// Engine runs jobs on a bounded worker pool with a bounded queue. Submit
// applies backpressure (ErrQueueFull) instead of queueing without bound, so
// a saturated service degrades by refusing work, never by exhausting memory.
// Finished job records (which hold their result bytes) are likewise bounded:
// once more than retention jobs are tracked, the oldest terminal records are
// evicted and their ids answer 404 — the result cache, not the job table, is
// the long-term result store.
type Engine struct {
	registry  *Registry
	cache     *LRU[[]byte]
	queue     chan *job
	retention int
	metrics   *Metrics
	events    *eventBus

	// pool, when non-nil, makes every computed job shard its Monte Carlo
	// replicates across the supervised sigfimd workers (coordinator mode).
	// One pool is shared by all jobs so worker-health state — ejections,
	// probe backoff, per-worker statistics — persists between jobs. Set once
	// before the first submission; results are bit-identical to local
	// execution, so the field is deliberately absent from cache keys and
	// request canonicalization. The pool's options carry the per-range
	// timeout and hedging; it sizes ranges itself.
	pool *sigfim.WorkerPool

	// traces retains the last N completed job traces (capacity <= 0
	// disables tracing); log, when non-nil, carries job lifecycle lines
	// tagged with job_id and trace_id. Both are set by the server before
	// any submission.
	traces *LRU[*trace.Trace]
	log    *slog.Logger

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for listing
	nextID int
	closed bool

	tally jobTally // written only by moveLocked

	wg sync.WaitGroup // running workers
}

// NewEngine starts an engine with the given worker pool size (minimum 1),
// queue capacity (minimum 1), and finished-job retention bound (minimum the
// queue capacity plus the pool size, so live jobs are never evicted).
func NewEngine(registry *Registry, cache *LRU[[]byte], workers, queueCap, retention int) *Engine {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	if retention < workers+queueCap {
		retention = workers + queueCap
	}
	e := &Engine{
		registry:  registry,
		cache:     cache,
		queue:     make(chan *job, queueCap),
		retention: retention,
		metrics:   NewMetrics(),
		events:    newEventBus(),
		jobs:      make(map[string]*job),
		tally:     make(jobTally),
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Metrics returns the engine's metrics registry.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Draining reports whether Shutdown has begun: the worker side of the fabric
// uses it to shed new partial requests with 503 instead of starting work the
// drain would abandon.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// validate checks a request's shape before it is admitted: its kind, k
// against min_support, and the rules fields. Submit then resolves a
// statistical job's Config against its dataset, so queued jobs can only
// fail for runtime reasons, never for malformed parameters.
func (e *Engine) validate(req JobRequest) error {
	switch req.Kind {
	case KindSignificant, KindSMin, KindClosed, KindMaximal, KindRules:
	default:
		return fmt.Errorf("%w: unknown job kind %q (valid kinds: %s)",
			ErrBadRequest, req.Kind, strings.Join(jobKinds, ", "))
	}
	statistical := req.Kind == KindSignificant || req.Kind == KindSMin
	if statistical {
		if req.K < 1 {
			return fmt.Errorf("%w: k must be >= 1, got %d", ErrBadRequest, req.K)
		}
		if req.MinSupport != 0 || req.MinConfidence != 0 || req.MaxLen != 0 {
			return fmt.Errorf("%w: min_support, min_confidence, and max_len do not apply to %q jobs (the methodology derives its own threshold)", ErrBadRequest, req.Kind)
		}
	} else {
		if req.K != 0 {
			return fmt.Errorf("%w: %q jobs take min_support, not k", ErrBadRequest, req.Kind)
		}
		if req.MinSupport < 1 {
			return fmt.Errorf("%w: min_support must be >= 1, got %d", ErrBadRequest, req.MinSupport)
		}
		if req.Kind != KindRules && (req.MinConfidence != 0 || req.MaxLen != 0) {
			return fmt.Errorf("%w: min_confidence and max_len apply only to %q jobs", ErrBadRequest, KindRules)
		}
		if req.MinConfidence < 0 || req.MinConfidence > 1 {
			return fmt.Errorf("%w: min_confidence must be in [0, 1], got %v", ErrBadRequest, req.MinConfidence)
		}
		if req.MaxLen < 0 {
			return fmt.Errorf("%w: max_len must be >= 0, got %d", ErrBadRequest, req.MaxLen)
		}
		if c := req.Config; req.Kind == KindRules && c != nil && !(c.Beta >= 0 && c.Beta < 1) {
			return fmt.Errorf("%w: rules Beta must be in [0, 1) (0 = unfiltered), got %v", ErrBadRequest, c.Beta)
		}
	}
	return nil
}

// canonicalRequest is the cache-key normal form of a job request. A
// significant or smin job keys on its Config as sigfim.ResolveConfig
// resolves it: defaults filled, fields the analysis ignores zeroed, the
// correction normalized ("" exactly when no baseline runs). Workers is
// cleared, since the engine is bit-identical for every worker count.
// Algorithm needs no clearing: every analysis mines with auto, so the
// resolver keys every accepted name to that one slot.
//
// The mining kinds (closed, maximal, rules) read no analysis config, so
// they carry only the fields that parameterize them; rules jobs keep Beta
// with its zero meaning "unfiltered", unlike significant jobs where zero
// means 0.05.
type canonicalRequest struct {
	Kind          string         `json:"kind"`
	K             int            `json:"k"`
	MinSupport    int            `json:"min_support"`
	MinConfidence float64        `json:"min_confidence"`
	MaxLen        int            `json:"max_len"`
	Beta          float64        `json:"beta"`
	Config        *sigfim.Config `json:"config,omitempty"`
}

// canonicalize builds the canonical form of a validated request against
// its dataset. The error is the resolver's, for a bad statistical config.
func canonicalize(ds *sigfim.Dataset, req JobRequest) (canonicalRequest, error) {
	c := canonicalRequest{Kind: req.Kind}
	switch req.Kind {
	case KindClosed, KindMaximal:
		c.MinSupport = req.MinSupport
		return c, nil
	case KindRules:
		c.MinSupport = req.MinSupport
		c.MinConfidence = req.MinConfidence
		c.MaxLen = req.MaxLen
		if c.MaxLen == 0 {
			c.MaxLen = 4
		}
		if req.Config != nil {
			c.Beta = req.Config.Beta
		}
		return c, nil
	}
	cfg, err := ds.ResolveConfig(req.K, req.Config, req.Kind == KindSMin)
	if err != nil {
		return c, err
	}
	cfg.Workers = 0
	c.K = req.K
	c.Config = &cfg
	return c, nil
}

// boundWorkers caps a request's Workers (a job's Config.Workers or a
// partial's PartialRequest.Workers) at this process's GOMAXPROCS, so a
// request cannot set how many goroutines the server starts; 0, every CPU,
// stays 0. Results are bit-identical for every worker count.
func boundWorkers(n int) int {
	return min(n, runtime.GOMAXPROCS(0))
}

// cacheKeyFor composes the full cache key: dataset identity plus the
// canonical request.
func cacheKeyFor(dsHash string, c canonicalRequest) string {
	b, err := json.Marshal(c)
	if err != nil {
		// canonicalRequest holds only scalars and a resolved Config, whose
		// floats are finite; Marshal cannot fail.
		panic(fmt.Sprintf("service: canonical request marshal: %v", err))
	}
	return dsHash + "|" + string(b)
}

// Submit validates and enqueues a job. A result-cache hit completes the job
// synchronously (the returned status is already StateDone and carries the
// cached bytes); otherwise the job is queued, or ErrQueueFull is returned
// when the queue is at capacity.
func (e *Engine) Submit(req JobRequest) (JobStatus, error) {
	if err := e.validate(req); err != nil {
		return JobStatus{}, err
	}
	ds, info, ok := e.registry.Get(req.Dataset)
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: dataset %q is not registered", ErrNotFound, req.Dataset)
	}
	// The config is resolved against the dataset (a swap chain's length
	// depends on its occurrences), so this is the first point it can be
	// checked.
	canon, err := canonicalize(ds, req)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	key := cacheKeyFor(info.Hash, canon)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return JobStatus{}, ErrShuttingDown
	}
	e.nextID++
	j := &job{
		id:       fmt.Sprintf("j%06d", e.nextID),
		req:      req,
		ds:       ds,
		dsHash:   info.Hash,
		cacheKey: key,
	}

	if cached, ok := e.cache.Get(key); ok {
		j.cacheHit = true
		j.result = cached
		// A cache hit is a completed run: report the same terminal progress a
		// computed job ends with (all Delta replicates merged), so watchers
		// and dashboards never see a done job stuck at 0/0.
		var delta int64
		if canon.Config != nil {
			delta = int64(canon.Config.Delta)
		}
		j.progressDone.Store(delta)
		j.progressTotal.Store(delta)
		st := e.moveLocked(j, StateDone, "")
		// A cache hit still gets a (one-span) trace so `jobs trace` works
		// uniformly on any completed job.
		rec := trace.NewRecorder(j.id)
		rec.AddRoot("job", j.createdAt, 0,
			trace.String("kind", j.req.Kind), trace.String("dataset", j.req.Dataset),
			trace.String("dataset_hash", j.dsHash), trace.Int("k", j.req.K),
			trace.String("state", string(StateDone)), trace.String("cache", "hit"))
		e.traces.Put(j.id, rec.Snapshot())
		return st, nil
	}

	select {
	case e.queue <- j:
	default:
		return JobStatus{}, ErrQueueFull
	}
	st := e.moveLocked(j, StateQueued, "")
	// No event is published here: the id was allocated under the lock just
	// now, so no watcher can be subscribed yet — the SSE handler's initial
	// snapshot is what covers the queued state.
	return st, nil
}

// moveLocked moves j to state to; it is the only write of a job's state.
// The moves are: new (the zero state) to queued, or to done on a cache hit;
// queued to running or canceled; running to done, failed or canceled. It
// stamps the move's time as j's creation, start or finish, enters a new job
// in the job table, keeps errMsg on a terminal state, moves j's count in the
// tally, and times a computed job that ends done. It returns j's status
// after the move. Callers hold e.mu.
func (e *Engine) moveLocked(j *job, to JobState, errMsg string) JobStatus {
	now := time.Now().UTC()
	from := j.state
	switch {
	case from == "":
		j.createdAt = now
		e.jobs[j.id] = j
		e.order = append(e.order, j.id)
	case to == StateRunning:
		j.startedAt = now
	}
	if to.Terminal() {
		j.finishedAt = now
		j.errMsg = errMsg
	}
	if from != "" {
		e.tally[tallyKey{j.req.Kind, from}]--
	}
	e.tally[tallyKey{j.req.Kind, to}]++
	// Only computed jobs that end done are timed: a cache hit's ~0s would
	// drown the real latency signal, and a canceled or failed run measures
	// when it was interrupted, not how long the work takes.
	if from == StateRunning && to == StateDone {
		e.metrics.duration(j.req.Kind).observe(j.finishedAt.Sub(j.startedAt))
	}
	j.state = to
	if from == "" {
		e.evictLocked()
	}
	return e.statusLocked(j, true)
}

// evictLocked drops the oldest terminal job records until at most retention
// jobs are tracked, so a long-running service's job table stays bounded.
// Queued and running jobs are never evicted (the retention floor guarantees
// enough headroom for all of them). Callers hold e.mu.
func (e *Engine) evictLocked() {
	for len(e.order) > e.retention {
		i := slices.IndexFunc(e.order, func(id string) bool { return e.jobs[id].state.Terminal() })
		if i < 0 {
			return // every tracked job is still live
		}
		delete(e.jobs, e.order[i])
		e.order = slices.Delete(e.order, i, i+1)
	}
}

// worker executes queued jobs until the queue is closed.
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.run(j)
	}
}

// run executes one job end to end. Cancellation propagates through the
// job's context into the Monte Carlo replicate loop; a canceled job ends in
// StateCanceled with no result, and — because the pipeline either returns a
// complete result or an error, never a partial — cancellation cannot corrupt
// the cache, the registry, or any other job.
func (e *Engine) run(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	e.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		e.mu.Unlock()
		return
	}
	running := e.moveLocked(j, StateRunning, "")
	j.cancel = cancel
	e.mu.Unlock()
	e.events.publish(j.id, JobEvent{Type: EventState, Status: running})

	// Every computed job records a trace: the recorder rides the context
	// through the public API into the Monte Carlo phases and the range
	// fabric, and the completed span set is retained in the trace store.
	// Tracing is pure observation — result bytes are identical with it on
	// or off — so there is no per-job opt-in.
	rec := trace.NewRecorder(j.id)
	ctx = trace.NewContext(ctx, rec)
	ctx, root := trace.Start(ctx, "job",
		trace.String("kind", j.req.Kind), trace.String("dataset", j.req.Dataset),
		trace.String("dataset_hash", j.dsHash), trace.Int("k", j.req.K))
	trace.Add(ctx, "queued", j.createdAt, j.startedAt.Sub(j.createdAt))
	jlog := e.log
	if jlog != nil {
		jlog = jlog.With("job_id", j.id, "trace_id", rec.TraceID())
		jlog.Info("job running", "kind", j.req.Kind, "dataset", j.req.Dataset, "k", j.req.K)
	}

	var cfg sigfim.Config
	if j.req.Config != nil {
		cfg = *j.req.Config // copy: the engine attaches its own Progress
	}
	cfg.Workers = boundWorkers(cfg.Workers)
	// Coordinator mode: shard the replicates across the supervised worker
	// pool. RemotePool is json:"-", so a job request can never inject its own
	// workers — this assignment is the only source.
	cfg.RemotePool = e.pool
	cfg.Progress = func(done, total int) {
		d := int64(done)
		prev := j.progressDone.Swap(d)
		j.progressTotal.Store(int64(total))
		// Replicate throughput: count the merges since the last callback. An
		// internal restart (s-tilde halving) resets done below prev; the new
		// pass's first callback then contributes its own count.
		if delta := d - prev; delta > 0 {
			e.metrics.addReplicates(delta)
		} else if d > 0 {
			e.metrics.addReplicates(d)
		}
		e.publishProgress(j)
	}

	var payload any
	var err error
	switch j.req.Kind {
	case KindSignificant:
		payload, err = j.ds.SignificantCtx(ctx, j.req.K, &cfg)
	case KindSMin:
		var s int
		s, err = j.ds.FindSMinCtx(ctx, j.req.K, &cfg)
		payload = SMinResult{K: j.req.K, SMin: s}
	case KindClosed:
		ps := j.ds.ClosedItemsets(j.req.MinSupport)
		payload = ItemsetsResult{MinSupport: j.req.MinSupport, NumItemsets: len(ps), Itemsets: ps}
	case KindMaximal:
		ps := j.ds.MaximalItemsets(j.req.MinSupport)
		payload = ItemsetsResult{MinSupport: j.req.MinSupport, NumItemsets: len(ps), Itemsets: ps}
	case KindRules:
		ropts := sigfim.RuleOptions{
			MinSupport:    j.req.MinSupport,
			MinConfidence: j.req.MinConfidence,
			MaxLen:        j.req.MaxLen,
		}
		var rs []sigfim.AssociationRule
		if cfg.Beta > 0 {
			rs, err = j.ds.SignificantRules(ropts, cfg.Beta)
		} else {
			rs, err = j.ds.Rules(ropts)
		}
		maxLen := j.req.MaxLen
		if maxLen == 0 {
			maxLen = 4
		}
		payload = RulesResult{
			MinSupport:    j.req.MinSupport,
			MinConfidence: j.req.MinConfidence,
			MaxLen:        maxLen,
			Beta:          cfg.Beta,
			NumRules:      len(rs),
			Rules:         rs,
		}
	default: // unreachable: Submit validated the kind
		err = fmt.Errorf("unknown kind %q", j.req.Kind)
	}

	var result []byte
	if err == nil {
		result, err = json.Marshal(payload)
	}

	e.mu.Lock()
	j.cancel = nil
	var final JobStatus
	switch {
	case err == nil:
		// Publish to the cache only after the computation fully succeeded;
		// identical future submissions are then served these exact bytes.
		e.cache.Put(j.cacheKey, result)
		j.result = result
		final = e.moveLocked(j, StateDone, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		final = e.moveLocked(j, StateCanceled, "canceled")
	default:
		final = e.moveLocked(j, StateFailed, err.Error())
	}
	e.mu.Unlock()
	root.End(trace.String("state", string(final.State)))
	e.traces.Put(j.id, rec.Snapshot())
	if jlog != nil {
		jlog.Info("job finished", "state", final.State,
			"duration_ms", j.finishedAt.Sub(j.startedAt).Milliseconds())
	}
	e.events.publish(j.id, JobEvent{Type: EventState, Status: final})
}

// Trace returns the retained trace of a completed job. The trace store is
// bounded independently of job-record retention, so a job may still be
// queryable after its trace was evicted (and a trace may outlive its job
// record).
func (e *Engine) Trace(id string) (*trace.Trace, bool) {
	return e.traces.Get(id)
}

// publishProgress emits a coalescable progress frame for a running job. It
// is called from the pipeline's merge goroutine once per replicate, so the
// no-subscriber fast path matters; the fields read here are either atomics
// or were written before the pipeline started.
func (e *Engine) publishProgress(j *job) {
	if !e.events.hasSubscribers(j.id) {
		return
	}
	started := j.startedAt
	e.events.publish(j.id, JobEvent{Type: EventProgress, Status: JobStatus{
		ID:          j.id,
		State:       StateRunning,
		Dataset:     j.req.Dataset,
		DatasetHash: j.dsHash,
		Kind:        j.req.Kind,
		K:           j.req.K,
		Progress: Progress{
			Done:  int(j.progressDone.Load()),
			Total: int(j.progressTotal.Load()),
		},
		CreatedAt: j.createdAt,
		StartedAt: &started,
	}})
}

// Get returns the status of a job.
func (e *Engine) Get(id string) (JobStatus, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	return e.statusLocked(j, true), nil
}

// Watch subscribes to a job's event stream, returning the job's current
// status (the stream's mandatory first frame) together with the
// subscription and its cancel function. Subscribing happens before the
// status read, so no transition can fall between the snapshot and the
// stream.
func (e *Engine) Watch(id string) (JobStatus, *subscription, func(), error) {
	sub := e.events.subscribe(id)
	st, err := e.Get(id)
	if err != nil {
		e.events.unsubscribe(id, sub)
		return JobStatus{}, nil, nil, err
	}
	return st, sub, func() { e.events.unsubscribe(id, sub) }, nil
}

// Cancel requests cancellation of a job. Queued jobs are canceled
// immediately; running jobs are canceled cooperatively at the next replicate
// boundary of their Monte Carlo loop. Canceling a finished job is a no-op
// that returns its final status.
func (e *Engine) Cancel(id string) (JobStatus, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	if j.state == StateQueued {
		st := e.moveLocked(j, StateCanceled, "canceled before start")
		e.mu.Unlock()
		e.events.publish(j.id, JobEvent{Type: EventState, Status: st})
		return st, nil
	}
	if j.state == StateRunning && j.cancel != nil {
		j.cancel() // the move to canceled happens in run when the pipeline unwinds
	}
	st := e.statusLocked(j, true)
	e.mu.Unlock()
	return st, nil
}

// List returns the status of every job in submission order. Listings omit
// the jobs' result bytes: with retention at 1024 done jobs,
// embedding every stored Result would make the listing payload unbounded in
// practice — results are served by Get (one job) and by the result cache.
func (e *Engine) List() []JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]JobStatus, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.statusLocked(e.jobs[id], false))
	}
	return out
}

// Counters snapshots the lifetime job counters.
func (e *Engine) Counters() EngineCounters {
	c, _ := e.counters()
	return c
}

// counters sums the job tally and returns it with a copy of the tally.
// The cache's hit count is read under e.mu too: Submit looks the cache up
// under e.mu, so every hit it counts is a done job in the tally.
func (e *Engine) counters() (EngineCounters, jobTally) {
	e.mu.Lock()
	defer e.mu.Unlock()
	hits, _ := e.cache.Counters()
	return e.tally.counters(hits), maps.Clone(e.tally)
}

// statusLocked builds the public view of a job; callers hold e.mu. The
// result bytes are attached only when includeResult is set (and the job is
// done): single-job reads and terminal event frames carry the result, while
// listings stay bounded by omitting it.
func (e *Engine) statusLocked(j *job, includeResult bool) JobStatus {
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Dataset:     j.req.Dataset,
		DatasetHash: j.dsHash,
		Kind:        j.req.Kind,
		K:           j.req.K,
		CacheHit:    j.cacheHit,
		Progress: Progress{
			Done:  int(j.progressDone.Load()),
			Total: int(j.progressTotal.Load()),
		},
		Error:     j.errMsg,
		CreatedAt: j.createdAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	if j.state == StateDone && includeResult {
		st.Result = j.result
	}
	return st
}

// Shutdown drains the engine gracefully: no new submissions are accepted,
// still-queued jobs are canceled, and running jobs are given until the
// context expires to finish. If the context expires first, running jobs are
// canceled cooperatively and Shutdown waits for them to unwind (prompt: the
// pipeline aborts at the next replicate boundary) before returning the
// context's error.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()

	// Drain still-queued jobs: they are canceled, not run. Workers may race
	// us for them; whoever wins, run's state check keeps it consistent.
drain:
	for {
		select {
		case j := <-e.queue:
			e.mu.Lock()
			if j.state != StateQueued { // canceled while queued
				e.mu.Unlock()
				continue
			}
			st := e.moveLocked(j, StateCanceled, "canceled: server shutting down")
			e.mu.Unlock()
			e.events.publish(j.id, JobEvent{Type: EventState, Status: st})
		default:
			break drain
		}
	}
	close(e.queue)

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.mu.Lock()
		for _, j := range e.jobs {
			if j.state == StateRunning && j.cancel != nil {
				j.cancel()
			}
		}
		e.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
