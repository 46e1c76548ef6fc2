package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sigfim"
	"sigfim/internal/client"
	"sigfim/internal/core"
	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/montecarlo"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
	"sigfim/internal/synth"
	"sigfim/internal/trace"
)

// Sizes of the traced pass.
const (
	// maxUnaccounted is the share of the traced job's wall time that may go
	// to no measured layer before the pass fails.
	maxUnaccounted = 0.05
	tracedHits     = 200 // cache hits timed for service.hit_ms and its p95
	// swapPPO is the library's default swap-chain length per occurrence.
	swapPPO = 8
)

// micro bounds one isolated layer measurement: it repeats until budget has
// elapsed and it has run at least reps times, then reports a median or a
// mean per unit of work.
type micro struct {
	reps   int
	budget time.Duration
}

func microFor(quick bool) micro {
	if quick {
		return micro{reps: 1}
	}
	return micro{reps: 3, budget: 150 * time.Millisecond}
}

func (m micro) more(n int, spent time.Duration) bool { return n < m.reps || spent < m.budget }

// The paper's budgets, as the library defaults them.
const (
	alpha   = 0.05
	beta    = 0.05
	epsilon = 0.01
)

// runTraced is the per-layer pass of one workload. After a warm-up it runs
// job 1 three ways: untraced in-process (the reference report and wall
// time), as a traced in-process pass that calls each layer's public entry
// point itself, and through sigfimd (the workload's coordinator, or a
// single server for the in-process workloads) whose job trace gives the
// service and fabric numbers. Isolated calls of single layers on the same
// data follow.
func runTraced(ctx context.Context, w workload, o options, log io.Writer) (result, error) {
	servers := 1
	if w.fabric {
		servers = 1 + remoteWorkers
	}
	e, _, warm, err := setupMedian(ctx, w, o, servers)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	t := &tally{log: log, prefix: w.name}
	ms := metricSet{"sigfim.warmup_s": warm}

	// The layer entry points take the internal dataset the public one wraps;
	// the synthesizer rebuilds it from the same seed.
	spec, ok := synth.ByName(w.profile)
	if !ok {
		return result{}, fmt.Errorf("unknown profile %q", w.profile)
	}
	v := spec.Scale(w.scale).GenerateReal(o.seed)
	base := v.Horizontal()

	warmCfg := w.config(o.quick, jobSeed(o.seed, 0))
	if _, err := e.ds.SignificantCtx(ctx, w.k, &warmCfg); !t.op("warm-up job", err) {
		return result{}, err
	}
	cfg := w.config(o.quick, jobSeed(o.seed, 1))
	refCfg := cfg
	start := time.Now()
	ref, err := e.ds.SignificantCtx(ctx, w.k, &refCfg)
	untraced := time.Since(start)
	if !t.op("reference job", err) {
		return result{}, err
	}
	t.mismatch("reference report", errors.Join(checkReport(e.ds, w, ref), oracleFor(w, o).check(1, ref)))

	lp, err := runLayers(ctx, w, cfg, v, base, e.ds)
	if err != nil {
		return result{}, fmt.Errorf("layers: %w", err)
	}
	t.op("layers reproduce the reference report", lp.matches(ref))
	t.op("layer accounting", lp.accounting())
	lp.report(ms, untraced)
	fmt.Fprintf(log, "%s: traced %.3fs = montecarlo %.3fs + proc2 %.3fs + proc1 %.3fs + materialize %.3fs, unaccounted %.4fs\n",
		w.name, lp.wall.Seconds(), lp.mc.Seconds(), lp.proc2.Seconds(), lp.proc1.Seconds(), lp.mat.Seconds(), lp.unaccounted().Seconds())

	if err := serviceLayers(ctx, e, w, cfg, ref, o, t, ms); err != nil {
		return result{}, fmt.Errorf("service: %w", err)
	}
	if err := isolatedLayers(ctx, e, w, cfg, lp, v, base, microFor(o.quick), t, ms); err != nil {
		return result{}, fmt.Errorf("isolated layers: %w", err)
	}

	metrics, err := ms.build(perLayer)
	if err != nil {
		return result{}, err
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// layerPass is the traced in-process job: Algorithm 1, Procedure 2,
// Procedure 1 and materialization called one after another, as
// core.AnalyzeCtx and Dataset.SignificantCtx chain them.
type layerPass struct {
	w                       workload
	wall                    time.Duration // first layer call to last
	mc, proc2, proc1, mat   time.Duration // each layer call
	proc1InJob, matInJob    bool          // false: timed in isolation, outside wall
	model                   randmodel.Model
	capture                 *capture
	res                     *montecarlo.Result
	sMin                    int
	p2                      *core.Procedure2Result
	p1                      *core.Procedure1Result
	materialized            int
	mineWall, mergeWait     time.Duration // montecarlo.mine spans
	searchWall              time.Duration // montecarlo.search spans
	halvings, prunes, evals int
	entries, inflight       int
}

func runLayers(ctx context.Context, w workload, cfg sigfim.Config, v *dataset.Vertical, base *dataset.Dataset, ds *sigfim.Dataset) (*layerPass, error) {
	workers := runtime.NumCPU()
	rec := trace.NewRecorder("")
	tctx := trace.NewContext(ctx, rec)
	lp := &layerPass{w: w}

	start := time.Now()
	lp.model = randmodel.FromProfile(dataset.ExtractVertical("dataset", v))
	if w.swap {
		lp.model = &randmodel.SwapModel{Base: base}
	}
	// Ranges of one replicate on workers executors mirror the in-process
	// loop; the runner keeps each partial for the replay below.
	lp.capture = newCapture(lp.model, workers)
	t := time.Now()
	res, err := montecarlo.FindPoissonThresholdCtx(tctx, lp.model, montecarlo.Config{
		K: w.k, Delta: cfg.Delta, Epsilon: epsilon, Seed: cfg.Seed,
		Workers: workers, Algorithm: mining.Auto,
		Runner: lp.capture.mine, RangeSize: 1, RangeInflight: workers,
		CollectMinPs: w.correction == core.CorrectionWestfallYoung,
	})
	lp.mc = time.Since(t)
	if err != nil {
		return nil, err
	}
	lp.res = res
	lp.sMin = max(res.SMin, res.Floor)
	lambda := func(s int) float64 { return res.Lambda(max(s, res.Floor)) }

	t = time.Now()
	lp.p2, err = core.Procedure2Ex(v, w.k, lp.sMin, lambda, alpha, beta, core.SplitEqual, workers, mining.Auto)
	lp.proc2 = time.Since(t)
	if err != nil {
		return nil, err
	}
	if lp.proc1InJob = w.correction != ""; lp.proc1InJob {
		if err := lp.runProc1(v, w.correction); err != nil {
			return nil, err
		}
	}
	if lp.matInJob = lp.p2.Found; lp.matInJob {
		if err := lp.materialize(ds, lp.p2.SStar, workers); err != nil {
			return nil, err
		}
	}
	lp.wall = time.Since(start)

	// Layers the job skips are still timed, in isolation, so every workload
	// reports them: Procedure 1 under the paper's default correction, and
	// materialization at s_min when s* is infinite.
	if !lp.proc1InJob {
		if err := lp.runProc1(v, core.CorrectionBY); err != nil {
			return nil, err
		}
	}
	if !lp.matInJob {
		if err := lp.materialize(ds, lp.sMin, workers); err != nil {
			return nil, err
		}
	}
	lp.readSpans(rec.Snapshot())
	return lp, nil
}

func (lp *layerPass) runProc1(v *dataset.Vertical, correction string) error {
	t := time.Now()
	p1, err := core.Procedure1Ex(v, lp.w.k, lp.sMin, beta, correction, lp.res.MinPs)
	lp.proc1 = time.Since(t)
	lp.p1 = p1
	return err
}

func (lp *layerPass) materialize(ds *sigfim.Dataset, minSupport, workers int) error {
	t := time.Now()
	ps, err := ds.Mine(sigfim.MineOptions{K: lp.w.k, MinSupport: minSupport, Workers: workers})
	lp.mat = time.Since(t)
	lp.materialized = len(ps)
	return err
}

// readSpans aggregates the Monte Carlo spans FindPoissonThresholdCtx
// recorded.
func (lp *layerPass) readSpans(tr *trace.Trace) {
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "montecarlo.halving":
			lp.halvings++
		case "montecarlo.mine":
			lp.mineWall += sp.Duration
			lp.mergeWait += time.Duration(attrInt(sp, "merge_wait_ms")) * time.Millisecond
			lp.entries = attrInt(sp, "entries") // the last halving is the accepted one
			lp.inflight = attrInt(sp, "inflight")
		case "montecarlo.search":
			lp.searchWall += sp.Duration
			lp.evals += attrInt(sp, "evaluations")
		case "montecarlo.prune":
			lp.prunes++
		}
	}
}

func attr(sp trace.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func attrInt(sp trace.Span, key string) int {
	n, _ := strconv.Atoi(attr(sp, key))
	return n
}

// accounted sums the layers measured inside the traced wall time: replicate
// generation+mining+merge (montecarlo.mine), the threshold search, and the
// Procedure 2, Procedure 1 and materialization calls the job makes. What
// remains is Algorithm 1 work no span covers (floor evaluation, lambda pool
// sort, profile extraction) plus call glue.
func (lp *layerPass) accounted() time.Duration {
	sum := lp.mineWall + lp.searchWall + lp.proc2
	if lp.proc1InJob {
		sum += lp.proc1
	}
	if lp.matInJob {
		sum += lp.mat
	}
	return sum
}

func (lp *layerPass) unaccounted() time.Duration { return lp.wall - lp.accounted() }

func (lp *layerPass) accounting() error {
	if u := lp.unaccounted(); u.Seconds() > maxUnaccounted*lp.wall.Seconds() {
		return fmt.Errorf("%v of the %v traced job is in no layer (limit %.0f%%)", u, lp.wall, 100*maxUnaccounted)
	}
	if lp.halvings == 0 || lp.mineWall <= 0 {
		return fmt.Errorf("no Monte Carlo spans were recorded")
	}
	return nil
}

// matches checks that the layer calls reproduced the untraced report.
func (lp *layerPass) matches(ref *sigfim.Report) error {
	got := [4]int{lp.sMin, -1, 0, -1}
	if lp.p2.Found {
		got[1], got[2] = lp.p2.SStar, int(lp.p2.Q)
		if lp.materialized != got[2] {
			return fmt.Errorf("materialized %d itemsets, Procedure 2 counted %d", lp.materialized, got[2])
		}
	}
	if lp.proc1InJob {
		got[3] = lp.p1.FamilySize
		if ref.Baseline == nil || ref.Baseline.NumTested != lp.p1.NumMined {
			return fmt.Errorf("Procedure 1 tested %d itemsets, the report a different number", lp.p1.NumMined)
		}
	}
	if want := outcome(ref); got != want || len(lp.p2.Steps) != len(ref.Steps) {
		return fmt.Errorf("layers gave (s_min, s*, Q, |R|) = %v over %d steps, report %v over %d", got, len(lp.p2.Steps), want, len(ref.Steps))
	}
	return nil
}

func (lp *layerPass) report(ms metricSet, untraced time.Duration) {
	gen := time.Duration(lp.capture.genNS.Load())
	mine := time.Duration(lp.capture.mineNS.Load())
	ms["job.traced_s"] = lp.wall.Seconds()
	ms["job.unaccounted_s"] = lp.unaccounted().Seconds()
	ms["trace.overhead"] = lp.wall.Seconds()/untraced.Seconds() - 1
	ms["montecarlo.s"] = lp.mc.Seconds()
	ms["montecarlo.halvings"] = float64(lp.halvings)
	ms["montecarlo.merge_busy_s"] = (lp.mineWall - lp.mergeWait).Seconds()
	ms["montecarlo.merge_wait_s"] = lp.mergeWait.Seconds()
	ms["montecarlo.pool_util"] = (gen + mine).Seconds() / (float64(max(lp.inflight, 1)) * lp.mineWall.Seconds())
	ms["montecarlo.search_s"] = lp.searchWall.Seconds()
	ms["montecarlo.search_evals"] = float64(lp.evals)
	ms["montecarlo.prunes"] = float64(lp.prunes)
	ms["montecarlo.entries"] = float64(lp.entries)
	ms["montecarlo.itemsets"] = float64(lp.res.NumItemsets)
	ms["randmodel.generate_cpu_s"] = gen.Seconds()
	ms["mining.replicate_cpu_s"] = mine.Seconds()
	ms["core.proc2_s"] = lp.proc2.Seconds()
	ms["core.proc2_steps"] = float64(len(lp.p2.Steps))
	ms["core.proc1_s"] = lp.proc1.Seconds()
	ms["core.proc1_tested"] = float64(lp.p1.NumMined)
	ms["sigfim.materialize_s"] = lp.mat.Seconds()
	ms["sigfim.materialized"] = float64(lp.materialized)
}

// capture is a montecarlo.RangeRunner that mines each range in-process
// exactly as the local replicate loop does — pooled scratch, generation and
// mining timed separately — and keeps every partial so the merge and search
// can later be replayed without regenerating a replicate.
type capture struct {
	model         randmodel.Model
	free          chan *montecarlo.RangeScratch // one scratch per executor
	genNS, mineNS atomic.Int64

	mu    sync.Mutex
	parts map[int][]*montecarlo.Partial // by range start
}

func newCapture(m randmodel.Model, workers int) *capture {
	return &capture{model: m, free: make(chan *montecarlo.RangeScratch, workers), parts: map[int][]*montecarlo.Partial{}}
}

func (c *capture) mine(ctx context.Context, req montecarlo.RangeRequest) (*montecarlo.Partial, error) {
	var scr *montecarlo.RangeScratch
	select {
	case scr = <-c.free:
	default:
		scr = montecarlo.NewRangeScratch()
		scr.Timing = true
	}
	g, m := scr.GenNanos, scr.MineNanos
	p := new(montecarlo.Partial)
	err := montecarlo.MineRange(ctx, c.model, req, scr, p)
	c.genNS.Add(scr.GenNanos - g)
	c.mineNS.Add(scr.MineNanos - m)
	select {
	case c.free <- scr:
	default:
	}
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.parts[req.Range.From] = append(c.parts[req.Range.From], p)
	c.mu.Unlock()
	return p, nil
}

// replay answers a range with the captured partial of the highest floor not
// above the requested one; the merge re-filters to its own floor, so the
// replayed estimate is the captured one.
func (c *capture) replay(_ context.Context, req montecarlo.RangeRequest) (*montecarlo.Partial, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *montecarlo.Partial
	for _, p := range c.parts[req.Range.From] {
		if p.To == req.Range.To && p.Floor <= req.Floor && (best == nil || p.Floor > best.Floor) {
			best = p
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no captured partial for range [%d,%d) at floor <= %d", req.Range.From, req.Range.To, req.Floor)
	}
	return best, nil
}

// serviceLayers submits job 1 through the workload's sigfimd, checks its
// bytes against the in-process reference, splits the client-observed wall
// time with the job's trace, and times cache hits of it.
func serviceLayers(ctx context.Context, e *env, w workload, cfg sigfim.Config, ref *sigfim.Report, o options, t *tally, ms metricSet) error {
	start := time.Now()
	st, err := e.cluster.significant(ctx, w.k, cfg)
	wall := time.Since(start)
	if !t.op("service job", err) {
		return err
	}
	miss := computed{idx: 1, cfg: cfg}
	if miss.raw, err = compact(st.Result); err != nil {
		return err
	}
	t.mismatch("service job", sameBytes(ref, miss.raw))
	tr, err := e.cluster.api.Trace(ctx, st.ID)
	if err != nil {
		return err
	}
	var job, queued *trace.Span
	var mcEnd time.Time
	var ranges, attempts, retries, hedges, locals int
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		switch sp.Name {
		case "job":
			job = sp
		case "queued":
			queued = sp
		case "montecarlo.halving":
			if end := sp.Start.Add(sp.Duration); end.After(mcEnd) {
				mcEnd = end
			}
		case "fabric.range":
			ranges++
		case "fabric.attempt":
			attempts++
			if out := attr(*sp, "outcome"); out == "retry" || out == "error" {
				retries++
			}
			if attr(*sp, "hedged") == "true" {
				hedges++
			}
		case "fabric.local":
			locals++
		}
	}
	if job == nil || queued == nil || mcEnd.IsZero() {
		return fmt.Errorf("job %s trace lacks the job, queued or montecarlo.halving span", st.ID)
	}
	ms["service.queue_s"] = queued.Duration.Seconds()
	ms["service.api_s"] = (wall - job.Duration - queued.Duration).Seconds()
	ms["service.post_mc_s"] = job.Start.Add(job.Duration).Sub(mcEnd).Seconds()
	ms["fabric.ranges"] = float64(ranges)
	ms["fabric.attempts"] = float64(attempts)
	ms["fabric.retries"] = float64(retries)
	ms["fabric.hedges"] = float64(hedges)
	ms["fabric.local_fallbacks"] = float64(locals)

	n := tracedHits
	if o.quick {
		n = quickHits
	}
	var lats []float64
	for i := 0; i < n; i++ {
		lat, err := e.cluster.hit(ctx, w.k, miss)
		if t.op("cache hit", err) {
			lats = append(lats, lat.Seconds()*1e3)
		}
	}
	if len(lats) == 0 {
		return errors.New("no cache hit succeeded")
	}
	ms["service.hit_ms"] = median(lats)
	ms["service.hit_ms_p95"] = quantile(lats, 0.95)
	return nil
}

// isolatedLayers times single layers on the workload's data, outside any job.
func isolatedLayers(ctx context.Context, e *env, w workload, cfg sigfim.Config, lp *layerPass, v *dataset.Vertical, base *dataset.Dataset, mc micro, t *tally, ms metricSet) error {
	workers := runtime.NumCPU()

	// Merge and search alone: Algorithm 1 over the captured partials.
	start := time.Now()
	replayed, err := montecarlo.FindPoissonThresholdCtx(ctx, lp.model, montecarlo.Config{
		K: w.k, Delta: cfg.Delta, Epsilon: epsilon, Seed: cfg.Seed,
		Workers: workers, Algorithm: mining.Auto,
		Runner: lp.capture.replay, RangeSize: 1, RangeInflight: workers,
		CollectMinPs: w.correction == core.CorrectionWestfallYoung,
	})
	ms["montecarlo.replay_s"] = time.Since(start).Seconds()
	if err != nil {
		return err
	}
	var replayErr error
	if replayed.SMin != lp.res.SMin || replayed.NumItemsets != lp.res.NumItemsets {
		replayErr = fmt.Errorf("replay gave s_min %d over %d itemsets, traced %d over %d",
			replayed.SMin, replayed.NumItemsets, lp.res.SMin, lp.res.NumItemsets)
	}
	t.op("replayed Algorithm 1", replayErr)

	// Null-model generation under both nulls, whatever the workload's.
	indep := randmodel.FromProfile(dataset.ExtractVertical("dataset", v))
	perRep, occ := timeGenerate(indep, cfg.Seed, mc)
	ms["randmodel.indep.ns_per_occurrence"] = float64(perRep.Nanoseconds()) / occ
	perRep, occ = timeGenerate(&randmodel.SwapModel{Base: base, ProposalsPerOccurrence: swapPPO}, cfg.Seed, mc)
	ms["randmodel.swap.ns_per_proposal"] = float64(perRep.Nanoseconds()) / (swapPPO * occ)

	// Every miner on one null replicate at the workload's mining floor.
	rv := randmodel.GenerateReusing(lp.model, stats.NewRNG(cfg.Seed), nil)
	floor := lp.res.Floor
	freqs := lp.model.ItemFrequencies()
	var tail []tailInput
	counts := map[mining.Algorithm]int{}
	for _, algo := range []mining.Algorithm{mining.Auto, mining.EclatTids, mining.EclatBits, mining.FPGrowth, mining.Apriori} {
		scr := mining.NewScratch()
		var times []float64
		var spent time.Duration
		for mc.more(len(times), spent) {
			n := 0
			t0 := time.Now()
			mining.VisitKAlgoScratch(rv, w.k, floor, 1, algo, scr, func(items mining.Itemset, sup int) {
				n++
				if algo == mining.Auto && len(tail) < 4096 {
					p := 1.0
					for _, it := range items {
						p *= freqs[it]
					}
					tail = append(tail, tailInput{p: p, s: sup})
				}
			})
			d := time.Since(t0)
			spent += d
			times = append(times, d.Seconds()*1e3)
			counts[algo] = n
		}
		ms["mining."+algo.String()+".ms"] = median(times)
	}
	ms["mining.itemsets"] = float64(counts[mining.Auto])
	var disagree error
	for algo, n := range counts {
		if n != counts[mining.Auto] {
			disagree = errors.Join(disagree, fmt.Errorf("%v mined %d itemsets, auto %d", algo, n, counts[mining.Auto]))
		}
	}
	t.op("miner agreement", disagree)

	// The exact Binomial tail Procedure 1 and Westfall–Young evaluate per
	// itemset, over the replicate's itemsets (or the top expected one).
	if len(tail) == 0 {
		top := append([]float64(nil), freqs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(top)))
		p := 1.0
		for _, f := range top[:min(w.k, len(top))] {
			p *= f
		}
		tail = []tailInput{{p: p, s: floor}}
	}
	ms["stats.binomial_tail_ns"] = binomialTailNS(lp.model.NumTransactions(), tail, mc)

	return rangeLayers(ctx, e, w, cfg, lp, mc, t, ms)
}

// rangeLayers times one replicate range mined in-process against the same
// range sent to a sigfimd worker, and checks the two partials are equal.
func rangeLayers(ctx context.Context, e *env, w workload, cfg sigfim.Config, lp *layerPass, mc micro, t *tally, ms metricSet) error {
	n := max(1, min(50, cfg.Delta/8))
	root := stats.NewRNG(cfg.Seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	req := montecarlo.RangeRequest{
		Range: montecarlo.ReplicateRange{From: 0, To: n}, K: w.k, Floor: lp.res.Floor,
		Algorithm: mining.Auto, Seeds: seeds, Workers: 1,
	}
	if w.correction == core.CorrectionWestfallYoung {
		req.StatFloor = req.Floor
	}
	wire := sigfim.PartialRequest{
		DatasetHash: e.ds.Hash(), From: 0, To: n, K: w.k, Floor: req.Floor, StatFloor: req.StatFloor,
		Seeds: seeds, Workers: 1, SwapNull: w.swap,
	}
	worker := e.cluster.coord
	if len(e.cluster.workers) > 0 {
		worker = e.cluster.workers[0]
	}
	api := client.New(worker.url, nil)

	var local montecarlo.Partial
	var remote *sigfim.RangePartial
	var localMS, remoteMS []float64
	for i := 0; i < mc.reps; i++ {
		t0 := time.Now()
		if err := montecarlo.MineRange(ctx, lp.model, req, nil, &local); err != nil {
			return err
		}
		localMS = append(localMS, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		rp, err := api.Partial(ctx, wire)
		if !t.op("worker partial", err) {
			return err
		}
		remoteMS = append(remoteMS, time.Since(t0).Seconds()*1e3)
		remote = rp
	}
	ms["montecarlo.range_local_ms"] = median(localMS)
	ms["fabric.range_rtt_ms"] = median(remoteMS)
	body, err := json.Marshal(remote)
	if err != nil {
		return err
	}
	ms["fabric.partial_kb"] = float64(len(body)) / 1024
	want, err := json.Marshal(sigfim.RangePartial(local))
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want) {
		t.mismatch("worker partial", fmt.Errorf("worker partial (%d bytes) differs from the in-process one (%d bytes)", len(body), len(want)))
	}
	return nil
}

// timeGenerate draws replicates from m as mc allows, after one untimed draw
// that builds any pooled state, and returns the mean time per replicate and
// the mean occurrences (ones) per replicate.
func timeGenerate(m randmodel.Model, seed uint64, mc micro) (time.Duration, float64) {
	v := randmodel.GenerateReusing(m, stats.NewRNG(seed), nil)
	var spent time.Duration
	var occ, reps int
	for mc.more(reps, spent) {
		t0 := time.Now()
		v = randmodel.GenerateReusing(m, stats.NewRNG(seed+uint64(reps)+1), v)
		spent += time.Since(t0)
		for _, tids := range v.Tids {
			occ += len(tids)
		}
		reps++
	}
	return spent / time.Duration(reps), float64(occ) / float64(reps)
}

type tailInput struct {
	p float64
	s int
}

// tailSink keeps the compiler from discarding the timed tail evaluations.
var tailSink float64

func binomialTailNS(t int, in []tailInput, mc micro) float64 {
	calls := 0
	start := time.Now()
	for mc.more(calls/len(in), time.Since(start)) {
		for _, x := range in {
			tailSink += stats.Binomial{N: t, P: x.p}.UpperTail(x.s)
		}
		calls += len(in)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
