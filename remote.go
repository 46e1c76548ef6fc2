package sigfim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"sigfim/internal/montecarlo"
	"sigfim/internal/randmodel"
	"sigfim/internal/trace"
)

// The distributed replicate fabric. Algorithm 1's Delta Monte Carlo
// replicates are embarrassingly parallel and deterministic per seed, so a
// coordinator can shard them across sigfimd workers: the replicate loop is
// split into half-open ranges, each range ships to a worker as a
// PartialRequest (addressed to a dataset by content hash, carrying the
// per-replicate seeds), the worker mines it through the exact code path the
// local pool uses (Dataset.MineReplicateRange), and the coordinator merges
// the returned RangePartials strictly in replicate-index order. Because
// replicate i always consumes seed i of the root RNG stream no matter which
// worker executes it, the merged result — and therefore the whole report —
// is bit-identical to a single-process run.
//
// Failure policy: dispatch goes through a WorkerPool supervisor (see
// workerpool.go) — every range request carries a hard HTTP deadline, a
// worker that keeps failing is ejected and stops receiving ranges until a
// health probe re-admits it, a 503 shed response backs the worker off
// without ejecting it, a straggling range can be hedged to a second worker
// (first valid partial wins; safe because partials are deterministic and
// validated), and a range no worker can serve is mined locally through the
// identical code path. None of this can change a byte of the result: every
// partial is validated against its request before it merges, and the merge
// order is fixed by replicate index regardless of who mined what.
//
// Configure a coordinator by passing a WorkerPool as Config.RemotePool;
// serve the worker side with sigfimd, whose POST
// /v1/partials endpoint calls MineReplicateRange against its dataset
// registry. Every sigfimd instance is a capable worker — there is no
// separate worker binary or mode flag.

// PartialRequest asks a worker to mine one replicate range. It is the body
// of sigfimd's POST /v1/partials and the input of Dataset.MineReplicateRange;
// the dataset is addressed by content hash so the coordinator and the worker
// provably mine the same bytes regardless of the names their registries use.
type PartialRequest struct {
	// DatasetHash is the content hash (Dataset.Hash) the worker must resolve
	// in its registry. Empty skips the check in MineReplicateRange (the
	// caller already holds the dataset); the HTTP endpoint requires it.
	DatasetHash string `json:"dataset_hash"`
	// From and To bound the half-open replicate range [From, To).
	From int `json:"from"`
	To   int `json:"to"`
	// K is the itemset size under study.
	K int `json:"k"`
	// Floor is the mining support threshold for every replicate in the range.
	Floor int `json:"floor"`
	// StatFloor, when positive, makes the worker additionally report each
	// replicate's minimum marginal Binomial p-value over itemsets with
	// support >= StatFloor (RangePartial.MinPs) — the Westfall-Young
	// statistic. Must be >= Floor; coordinators collecting it pin the two
	// equal. Zero (the default) skips collection.
	StatFloor int `json:"stat_floor,omitempty"`
	// Seeds holds one RNG seed per replicate; Seeds[i] drives replicate
	// From+i. The coordinator derives them from the root stream, so a
	// replicate's substream never depends on which worker executes it.
	Seeds []uint64 `json:"seeds"`
	// Workers bounds the worker-side intra-mine parallelism (0 = worker's
	// choice). It cannot influence the mined result.
	Workers int `json:"workers,omitempty"`
	// SwapNull selects swap randomization as the null model; the zero value
	// is the paper's independence model. SwapProposalsPerOccurrence and
	// SwapProposals parameterize the chain exactly as in Config.
	SwapNull                   bool `json:"swap_null,omitempty"`
	SwapProposalsPerOccurrence int  `json:"swap_ppo,omitempty"`
	SwapProposals              int  `json:"swap_proposals,omitempty"`
}

// RangePartial is the serializable product of mining one replicate range:
// per replicate, the k-itemsets whose support reached the floor, in the
// deterministic emission order of the miner. It is the response body of
// POST /v1/partials. The field layout mirrors the coordinator's internal
// partial exactly, so conversion is a struct cast.
type RangePartial struct {
	// From and To echo the replicate range.
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
	// replicate's itemsets with support >= StatFloor (montecarlo.MinPNone
	// when none reached it). float64 JSON round trips are exact, so the
	// Westfall-Young null distribution is bit-identical however many
	// processes it crossed.
	MinPs []float64 `json:"min_ps,omitempty"`
}

// MineReplicateRange executes one replicate-range request against this
// dataset, filling out (reset first; its backing arrays are reused). It is
// the worker side of the distributed fabric — sigfimd's POST /v1/partials
// calls it — and also the coordinator's local fallback when every remote
// worker fails, which is what guarantees the two paths cannot diverge: they
// are the same function. The generation and mining buffers come from a
// bounded free list on the dataset, so a warm dataset mines range after
// range without regrowing them. The context is honored at replicate
// boundaries.
func (ds *Dataset) MineReplicateRange(ctx context.Context, req PartialRequest, out *RangePartial) error {
	if req.DatasetHash != "" && req.DatasetHash != ds.Hash() {
		return fmt.Errorf("sigfim: dataset hash mismatch: request %s, dataset %s", req.DatasetHash, ds.Hash())
	}
	perOccurrence, proposals, err := ds.swapLengths(req.SwapNull, req.SwapProposalsPerOccurrence, req.SwapProposals)
	if err != nil {
		return err
	}
	mreq := montecarlo.RangeRequest{
		Range:     montecarlo.ReplicateRange{From: req.From, To: req.To},
		K:         req.K,
		Floor:     req.Floor,
		StatFloor: req.StatFloor,
		Seeds:     req.Seeds,
		Workers:   req.Workers,
	}
	ds.vertical() // force the one-time lazy caches for concurrent safety
	// The null model is built from the same dataset state the
	// single-process pipeline uses, so the worker and the coordinator
	// generate value-identical replicates. The independence model comes
	// prepared: one request draws a whole range of replicates from it.
	var null randmodel.Model
	if req.SwapNull {
		null = ds.swapModel(perOccurrence, proposals)
	} else {
		null = randmodel.IndependentModel{
			T:     ds.d.NumTransactions(),
			Freqs: ds.frequencies(),
		}.Prepare()
	}
	scr := ds.takeRangeScratch()
	defer ds.putRangeScratch(scr)
	return montecarlo.MineRange(ctx, null, mreq, scr, (*montecarlo.Partial)(out))
}

// maxIdleRangeScratches bounds the range scratches a dataset keeps for
// reuse. It matches the concurrent partials a sigfimd worker admits by
// default, max(8, 4·GOMAXPROCS): an idle list never holds more scratches
// than were mining at once, and that many are then reused instead of
// regrown.
func maxIdleRangeScratches() int {
	return max(8, 4*runtime.GOMAXPROCS(0))
}

// takeRangeScratch returns an idle range scratch, or a new one.
func (ds *Dataset) takeRangeScratch() *montecarlo.RangeScratch {
	ds.scrMu.Lock()
	defer ds.scrMu.Unlock()
	ds.scrBusy++
	if n := len(ds.scrIdle); n > 0 {
		scr := ds.scrIdle[n-1]
		ds.scrIdle = ds.scrIdle[:n-1]
		return scr
	}
	return montecarlo.NewRangeScratch()
}

// putRangeScratch returns a scratch to the idle list, dropping it when the
// list is full. The last range in flight leaves only its own scratch
// behind: a dataset nobody is mining keeps one scratch warm for the next
// range, not one per range it once mined at once.
func (ds *Dataset) putRangeScratch(scr *montecarlo.RangeScratch) {
	ds.scrMu.Lock()
	defer ds.scrMu.Unlock()
	ds.scrBusy--
	if ds.scrBusy == 0 {
		clear(ds.scrIdle)
		ds.scrIdle = ds.scrIdle[:0]
	}
	if len(ds.scrIdle) < maxIdleRangeScratches() {
		ds.scrIdle = append(ds.scrIdle, scr)
	}
}

// remoteFabric is the coordinator's RangeRunner: it fans replicate ranges
// out over the supervised worker pool — each range gets a bounded sequence
// of attempts against eligible workers (with every attempt under the pool's
// HTTP deadline, and optionally a hedged duplicate dispatch once the first
// attempt straggles past hedgeDelay) and finally falls back to mining the
// range locally through the identical code path. Every attempt reads its
// response into a body buffer recycled through bodies, and only the winning
// body is decoded, into the merge's recycled partial (RangeRequest.Out).
// The body buffers are kept only while ranges are in flight: when the last
// one finishes (the end of a halving's fan-out) they are dropped, so the
// rest of the job does not carry them. Safe for concurrent calls.
type remoteFabric struct {
	ds         *Dataset
	pool       *WorkerPool
	hc         *http.Client
	template   PartialRequest // null model; range fields filled per call
	retries    int            // max remote attempts per range
	hedgeDelay time.Duration  // 0 disables hedged dispatch
	bodies     chan *bytes.Buffer
	active     atomic.Int32 // ranges in run
}

// fabricBodyBuffers bounds the response buffers one job's fabric keeps for
// reuse: one per attempt in flight, at the coordinator's default of four
// ranges dispatched at once, each of which may have a hedged twin.
const fabricBodyBuffers = 8

// newRangeRunner builds the montecarlo runner that dispatches through
// cfg.RemotePool. Every range gets one remote attempt per configured worker
// before it falls back to local mining.
func (ds *Dataset) newRangeRunner(cfg *Config) montecarlo.RangeRunner {
	pool := cfg.RemotePool
	f := &remoteFabric{
		ds:         ds,
		pool:       pool,
		hc:         pool.client(),
		retries:    pool.size(),
		hedgeDelay: pool.opts.HedgeDelay,
		bodies:     make(chan *bytes.Buffer, fabricBodyBuffers),
		template: PartialRequest{
			DatasetHash:                ds.Hash(),
			SwapNull:                   cfg.SwapNull,
			SwapProposalsPerOccurrence: cfg.SwapProposalsPerOccurrence,
			SwapProposals:              cfg.SwapProposals,
		},
	}
	return f.run
}

// takeBody returns an idle response buffer, or a new one.
func (f *remoteFabric) takeBody() *bytes.Buffer {
	select {
	case b := <-f.bodies:
		return b
	default:
		return new(bytes.Buffer)
	}
}

// putBody returns a response buffer for reuse, dropping it when the list is
// full.
func (f *remoteFabric) putBody(b *bytes.Buffer) {
	select {
	case f.bodies <- b:
	default:
	}
}

// dropBodies empties the body buffer list.
func (f *remoteFabric) dropBodies() {
	for {
		select {
		case <-f.bodies:
		default:
			return
		}
	}
}

// run executes one range: up to the retry budget of eligible workers are
// attempted (the supervisor orders them and skips ejected or backed-off
// ones), then the range runs locally. Only context cancellation aborts
// without the local fallback — no combination of worker failures can cost
// the job, and a worker the supervisor has ejected costs nothing at all.
// Each range records one fabric.range span with per-attempt children, so a
// job's trace attributes every range to the worker(s) that tried it. The
// partial lands in req.Out (a fresh one when the caller passed none).
func (f *remoteFabric) run(ctx context.Context, req montecarlo.RangeRequest) (*montecarlo.Partial, error) {
	f.active.Add(1)
	defer func() {
		if f.active.Add(-1) == 0 {
			f.dropBodies()
		}
	}()
	out := req.Out
	if out == nil {
		out = new(montecarlo.Partial)
	}
	wire := f.template
	wire.From = req.Range.From
	wire.To = req.Range.To
	wire.K = req.K
	wire.Floor = req.Floor
	wire.StatFloor = req.StatFloor
	wire.Seeds = req.Seeds
	wire.Workers = req.Workers

	rctx, rsp := trace.Start(ctx, "fabric.range",
		trace.Int("from", req.Range.From), trace.Int("to", req.Range.To))

	var lastErr error
	if candidates := f.pool.pick(f.retries); len(candidates) > 0 {
		err := f.runRemote(rctx, req, wire, candidates, out)
		if err == nil {
			rsp.End(trace.String("outcome", "ok"))
			return out, nil
		}
		if ctx.Err() != nil {
			rsp.End(trace.String("outcome", "canceled"))
			return nil, ctx.Err()
		}
		lastErr = err
	}
	f.pool.noteLocalFallback()
	lctx, lsp := trace.Start(rctx, "fabric.local")
	err := f.ds.MineReplicateRange(lctx, wire, (*RangePartial)(out))
	lsp.End(trace.String("outcome", "local-fallback"))
	if err != nil {
		rsp.End(trace.String("outcome", "error"))
		if lastErr != nil {
			return nil, fmt.Errorf("remote attempts failed (last: %v); local fallback: %w", lastErr, err)
		}
		return nil, err
	}
	rsp.End(trace.String("outcome", "local-fallback"))
	return out, nil
}

// runRemote walks the candidate workers for one range. Attempts run
// sequentially on failure; when hedging is enabled, a second attempt is
// additionally launched in parallel once the current one has straggled past
// hedgeDelay, and the first valid partial wins (the loser is canceled).
// Each attempt only reads the response into a body buffer of its own, taken
// once the response has arrived; the first body to arrive is decoded into
// out and validated here, so out only ever holds the winning attempt's
// partial. A body that fails to decode or validate fails its attempt like
// a transport error. Every outcome is reported to the supervisor; attempts
// canceled because a sibling already won are not failures — losing a hedge
// race never touches health state — but their cancellation latency still
// lands in the worker's range-latency histogram (via noteHedgeLoss) so the
// telemetry accounts for every dispatched request.
func (f *remoteFabric) runRemote(ctx context.Context, req montecarlo.RangeRequest, wire PartialRequest, candidates []string, out *montecarlo.Partial) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		body   *bytes.Buffer
		url    string
		err    error
		hedged bool
		lat    time.Duration
		sp     *trace.Active
	}
	results := make(chan attempt, len(candidates))
	next := 0
	launch := func(hedged bool) {
		url := candidates[next]
		next++
		if hedged {
			f.pool.noteHedge(url)
		}
		sctx, sp := trace.Start(actx, "fabric.attempt",
			trace.String("worker", url), trace.Int("attempt", next),
			trace.String("hedged", strconv.FormatBool(hedged)))
		go func() {
			start := time.Now()
			body, err := postPartial(sctx, f.hc, url, wire, f.takeBody)
			results <- attempt{body: body, url: url, err: err, hedged: hedged, lat: time.Since(start), sp: sp}
		}()
	}
	launch(false)
	outstanding := 1

	var hedge <-chan time.Time
	if f.hedgeDelay > 0 && len(candidates) > 1 {
		t := time.NewTimer(f.hedgeDelay)
		defer t.Stop()
		hedge = t.C
	}

	// drainLosers settles attempts still in flight after a winner returned:
	// each is canceled by the deferred cancel, and its latency-until-cancel
	// is recorded as a hedge loss. Runs detached so the winner's partial is
	// merged without waiting on the losers to notice the cancellation.
	drainLosers := func(n int) {
		if n <= 0 {
			return
		}
		go func() {
			for i := 0; i < n; i++ {
				l := <-results
				if l.body != nil {
					f.putBody(l.body)
				}
				f.pool.noteHedgeLoss(l.url, l.lat)
				l.sp.End(trace.String("outcome", "hedge-loss"))
			}
		}()
	}

	var lastErr error
	for {
		select {
		case <-ctx.Done():
			drainLosers(outstanding)
			return ctx.Err()
		case <-hedge:
			hedge = nil
			if next < len(candidates) {
				launch(true)
				outstanding++
			}
		case r := <-results:
			outstanding--
			if r.err == nil {
				if err := decodePartial(r.body.Bytes(), wire, (*RangePartial)(out)); err != nil {
					r.err = fmt.Errorf("worker %s: %w", r.url, err)
				} else if err := out.Validate(req); err != nil {
					r.err = fmt.Errorf("worker %s: %w", r.url, err)
				}
			}
			if r.body != nil {
				f.putBody(r.body)
			}
			if r.err == nil {
				f.pool.reportSuccess(r.url, r.lat, req.Range.To-req.Range.From)
				outcome := "ok"
				if r.hedged {
					outcome = "hedge-win"
				}
				r.sp.End(trace.String("outcome", outcome))
				drainLosers(outstanding)
				return nil
			}
			f.pool.reportFailure(r.url, r.err)
			lastErr = r.err
			if next < len(candidates) {
				launch(false)
				outstanding++
			} else if outstanding == 0 {
				r.sp.End(trace.String("outcome", "error"), trace.String("error", r.err.Error()))
				return lastErr
			}
			// Another attempt was just launched or is still in flight, so
			// from this range's point of view the failure became a retry.
			r.sp.End(trace.String("outcome", "retry"), trace.String("error", r.err.Error()))
		}
	}
}

// maxPartialResponse bounds how many bytes of a worker's 200 response the
// coordinator will read. Partials for very low floors are large, but a
// response past this bound is a misbehaving worker, not a bigger partial.
const maxPartialResponse = 1 << 30

// postPartial performs one POST /v1/partials round trip against a worker
// and reads the 200 body through a hard size limit into a buffer from take
// (reset first, its capacity reused), which it returns — also alongside a
// read error, so the caller can recycle it; decodePartial turns the body
// into a partial. The buffer is taken only once a 200 has arrived, so an
// attempt holds none while it waits. Non-2xx responses come back as
// *workerHTTPError so the supervisor can classify load shedding (503/429 +
// Retry-After) apart from hard failures.
func postPartial(ctx context.Context, hc *http.Client, base string, req PartialRequest, take func() *bytes.Buffer) (*bytes.Buffer, error) {
	reqBody, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/partials", bytes.NewReader(reqBody))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	// Propagate trace context so the worker's /v1/partials log lines carry
	// the coordinator's trace/span and job IDs (see trace.Header contract).
	if h := trace.HeaderValue(ctx); h != "" {
		httpReq.Header.Set(trace.Header, h)
		if jid := trace.FromContext(ctx).JobID(); jid != "" {
			httpReq.Header.Set(trace.JobHeader, jid)
		}
	}
	resp, err := hc.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		herr := &workerHTTPError{url: base, status: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			herr.msg = e.Error
		} else {
			herr.msg = string(bytes.TrimSpace(msg))
		}
		if herr.shedding() {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
				herr.retryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, herr
	}
	body := take()
	body.Reset()
	if _, err := body.ReadFrom(io.LimitReader(resp.Body, maxPartialResponse+1)); err != nil {
		return body, fmt.Errorf("worker %s: read partial: %w", base, err)
	}
	if body.Len() > maxPartialResponse {
		return body, fmt.Errorf("worker %s: partial response exceeds %d bytes", base, maxPartialResponse)
	}
	return body, nil
}

// decodePartial decodes a worker's 200 body into dst, reusing dst's backing
// arrays. Every field is reset first: items, sups and min_ps are omitempty,
// so a body without them must not inherit a previous range's values. The
// body must be exactly one JSON document (trailing garbage — a truncated
// proxy buffer, a corrupted stream — is rejected) and must echo the
// requested range and k with a floor at or below the requested one.
func decodePartial(body []byte, req PartialRequest, dst *RangePartial) error {
	*dst = RangePartial{Counts: dst.Counts[:0], Items: dst.Items[:0], Sups: dst.Sups[:0], MinPs: dst.MinPs[:0]}
	// Make room for the arrays up front: encoding/json grows a slice ~1.25x
	// at a time, which copies a fresh partial's arrays some 5x over. Each
	// itemset's k item ids and support are followed by a comma but for the
	// last of either array, so the body's commas bound the itemset count.
	if n := (bytes.Count(body, []byte{','}) + 2) / (req.K + 1); cap(dst.Sups) < n && req.K > 0 {
		dst.Items = make([]uint32, 0, n*req.K)
		dst.Sups = make([]int32, 0, n)
	}
	if err := json.Unmarshal(body, dst); err != nil {
		// A syntax error whose preceding bytes form a whole document is a
		// second value after it.
		var se *json.SyntaxError
		if errors.As(err, &se) && se.Offset > 0 && json.Valid(body[:se.Offset-1]) {
			return errors.New("trailing data after partial JSON document")
		}
		return fmt.Errorf("decode partial: %w", err)
	}
	if dst.From != req.From || dst.To != req.To || dst.K != req.K || dst.Floor > req.Floor {
		return fmt.Errorf("partial echo mismatch: got range [%d,%d) k=%d floor=%d, want [%d,%d) k=%d floor<=%d",
			dst.From, dst.To, dst.K, dst.Floor, req.From, req.To, req.K, req.Floor)
	}
	return nil
}
