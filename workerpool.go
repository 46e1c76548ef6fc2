package sigfim

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Worker supervision for the distributed replicate fabric. A WorkerPool
// tracks the health of every configured sigfimd worker from the outcomes of
// the range requests sent to it plus periodic /healthz probes, and decides
// which workers are eligible to receive the next range:
//
//   - healthy: the worker answers; ranges are dispatched to it.
//   - suspect: recent consecutive failures, but fewer than the ejection
//     threshold; still eligible, but healthy workers are preferred.
//   - ejected: the circuit breaker tripped after defaultEjectAfter
//     consecutive hard failures. Ejected workers receive no ranges; the pool
//     re-probes their /healthz with exponential backoff plus jitter and
//     re-admits them on the first successful probe, so a restarted worker
//     rejoins automatically.
//
// A 503 (or 429) response is load shedding, not death: the worker is backed
// off for its Retry-After window without counting toward ejection, and
// becomes eligible again when the window expires.
//
// Supervision can only affect where a range is executed, never what it
// computes — every replicate consumes the same seed on every executor and
// partials are validated before merging — so the pool is free to make
// arbitrary placement decisions without endangering the fabric's
// bit-identity guarantee.

// Worker states as reported by WorkerStatus.State.
const (
	WorkerHealthy = "healthy"
	WorkerSuspect = "suspect"
	WorkerEjected = "ejected"
)

// workerHTTPError is a non-2xx response from a worker, carrying what the
// supervisor needs to classify it: load shedding (503/429, honor Retry-After
// and back off) versus a hard failure (count toward ejection).
type workerHTTPError struct {
	url        string
	status     int
	retryAfter time.Duration // parsed Retry-After on 503/429; 0 if absent
	msg        string
}

func (e *workerHTTPError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("worker %s: %s (HTTP %d)", e.url, e.msg, e.status)
	}
	return fmt.Sprintf("worker %s: HTTP %d", e.url, e.status)
}

// shedding reports whether the response asks the coordinator to back off
// rather than give up on the worker.
func (e *workerHTTPError) shedding() bool {
	return e.status == http.StatusServiceUnavailable || e.status == http.StatusTooManyRequests
}

// WorkerPoolOptions tunes a WorkerPool; the zero value selects the defaults
// documented per field.
type WorkerPoolOptions struct {
	// Timeout bounds every HTTP round trip to a worker — range dispatches and
	// health probes alike (default 2 minutes). This is the per-range deadline
	// that keeps a hung worker from stalling a job: when it expires the range
	// is retried elsewhere and the timeout counts as a hard failure.
	Timeout time.Duration
	// HedgeDelay, when positive, enables hedged dispatch: a range whose
	// first attempt has not answered within the delay is additionally sent
	// to a second worker, and the first valid partial wins. Hedging trades
	// duplicate work for tail latency; it cannot influence the result
	// because partials are deterministic and validated before merging.
	HedgeDelay time.Duration

	// Test seams (package-internal): the ejection threshold (0 =
	// defaultEjectAfter), a fake clock, a fake probe, a pinned range size
	// and another autotuning target (see rangeSize).
	ejectAfter int
	now        func() time.Time
	probe      func(ctx context.Context, base string) error
	rangeSize  int
	rangeWall  time.Duration
}

// The supervisor's fixed schedule. A worker is ejected after
// defaultEjectAfter consecutive hard failures (load-shedding 503/429
// responses never count). An ejected worker is first re-probed after
// firstProbeDelay; each failed probe doubles the delay up to maxProbeDelay,
// and every delay is jittered by ±25% so a fleet of coordinators does not
// probe in lockstep. A 503/429 without a parseable Retry-After header backs
// the worker off for shedWindow.
const (
	defaultEjectAfter = 3
	firstProbeDelay   = 2 * time.Second
	maxProbeDelay     = 60 * time.Second
	shedWindow        = time.Second
)

func (o WorkerPoolOptions) withDefaults() WorkerPoolOptions {
	if o.ejectAfter <= 0 {
		o.ejectAfter = defaultEjectAfter
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// fabricWorker is the supervisor's per-worker record; all fields are guarded
// by the pool mutex.
type fabricWorker struct {
	url   string
	state string

	consecFails  int
	backoffUntil time.Time // 503/429 shed window; zero when not backed off

	probing      bool
	probeBackoff time.Duration
	nextProbeAt  time.Time // meaningful while ejected

	successes    uint64
	failures     uint64
	backoffs     uint64
	ejections    uint64
	readmissions uint64
	hedged       uint64

	// Range-latency telemetry: a fixed-bucket histogram of observed range
	// wall latencies (successful dispatches plus canceled hedge losers) and
	// an EWMA of seconds-per-replicate from successful dispatches only. The
	// EWMA feeds range-size autotuning; hedge losers are censored
	// observations (canceled mid-flight) so they land in the histogram but
	// never move the EWMA.
	latBuckets    []uint64
	latCount      uint64
	latSumSeconds float64
	ewmaRepSecs   float64
}

// RangeLatencyBuckets are the upper bounds (seconds) of the per-worker
// range-latency histogram; observations above the last bound land in an
// implicit overflow bucket.
var RangeLatencyBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// ewmaAlpha weights the newest per-replicate latency observation; ~0.3
// adapts within a few ranges while smoothing single-range noise.
const ewmaAlpha = 0.3

// observeLatencyLocked records one range round trip of duration d covering
// replicates replicates. Callers hold p.mu.
func (w *fabricWorker) observeLatencyLocked(d time.Duration, replicates int, updateEWMA bool) {
	if d < 0 {
		d = 0
	}
	if w.latBuckets == nil {
		w.latBuckets = make([]uint64, len(RangeLatencyBuckets)+1)
	}
	secs := d.Seconds()
	i := 0
	for i < len(RangeLatencyBuckets) && secs > RangeLatencyBuckets[i] {
		i++
	}
	w.latBuckets[i]++
	w.latCount++
	w.latSumSeconds += secs
	if updateEWMA && replicates > 0 {
		rep := secs / float64(replicates)
		if w.ewmaRepSecs == 0 {
			w.ewmaRepSecs = rep
		} else {
			w.ewmaRepSecs = (1-ewmaAlpha)*w.ewmaRepSecs + ewmaAlpha*rep
		}
	}
}

// RangeLatencyStats is one worker's observed range-latency distribution.
type RangeLatencyStats struct {
	// Count and SumSeconds summarize every observation (successes and
	// canceled hedge losers).
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	// Buckets holds per-bucket (non-cumulative) counts aligned with
	// RangeLatencyBuckets, plus a final overflow bucket.
	Buckets []uint64 `json:"buckets"`
	// EWMAReplicateSeconds is the smoothed per-replicate latency from
	// successful dispatches; 0 until the first success. It drives range-size
	// autotuning (see autotuneRangeSize).
	EWMAReplicateSeconds float64 `json:"ewma_replicate_seconds,omitempty"`
}

// WorkerStatus is one worker's public supervision snapshot.
type WorkerStatus struct {
	URL   string `json:"url"`
	State string `json:"state"`
	// ConsecutiveFailures is the current hard-failure streak (resets on any
	// success or re-admission).
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Successes and Failures count range dispatches by outcome; Backoffs
	// counts honored 503/429 shed responses (not failures).
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
	Backoffs  uint64 `json:"backoffs"`
	// Ejections and Readmissions count circuit-breaker trips and recoveries.
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`
	// Hedged counts hedged (duplicate) range dispatches sent to this worker.
	Hedged uint64 `json:"hedged"`
	// RangeLatency is the worker's observed range-latency distribution;
	// nil until the first observation.
	RangeLatency *RangeLatencyStats `json:"range_latency,omitempty"`
	// NextProbeInSeconds is how far away the next health probe is while the
	// worker is ejected (0 once due).
	NextProbeInSeconds float64 `json:"next_probe_in_seconds,omitempty"`
}

// FabricStats is the pool-wide supervision snapshot served by /v1/stats and
// rendered into /metrics by a coordinating sigfimd.
type FabricStats struct {
	Workers []WorkerStatus `json:"workers"`
	// Hedges counts hedged range dispatches (a straggling range re-sent to a
	// second worker; the first valid partial wins).
	Hedges uint64 `json:"hedges"`
	// LocalFallbacks counts ranges the coordinator mined locally because no
	// worker was eligible or every remote attempt failed.
	LocalFallbacks uint64 `json:"local_fallbacks"`
}

// WorkerPool supervises a set of sigfimd workers for a coordinator. It is
// safe for concurrent use and may be shared by any number of concurrent
// analyses (a sigfimd coordinator shares one pool across all its jobs, so
// health state persists between jobs). Close releases the background prober.
type WorkerPool struct {
	opts WorkerPoolOptions
	hc   *http.Client

	mu      sync.Mutex
	workers []*fabricWorker
	cursor  int
	rng     *rand.Rand
	hedges  uint64
	locals  uint64
	closed  bool

	stop    chan struct{}
	probeWG sync.WaitGroup
}

// NewWorkerPool builds a supervisor over the given worker base URLs
// (duplicates and empty entries are dropped) and starts its background
// prober. Call Close when the pool is no longer needed.
func NewWorkerPool(urls []string, opts WorkerPoolOptions) *WorkerPool {
	opts = opts.withDefaults()
	hc := &http.Client{Timeout: opts.Timeout, Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		DialContext:         (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
		TLSHandshakeTimeout: 10 * time.Second,
	}}
	p := &WorkerPool{
		opts: opts,
		hc:   hc,
		rng:  rand.New(rand.NewSource(int64(len(urls)) + 1)),
		stop: make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, u := range urls {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" && !seen[u] {
			seen[u] = true
			p.workers = append(p.workers, &fabricWorker{url: u, state: WorkerHealthy})
		}
	}
	p.probeWG.Add(1)
	go p.probeLoop()
	return p
}

// Close stops the background prober and waits for in-flight probes. The pool
// must not be used after Close.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.stop)
	p.mu.Unlock()
	p.probeWG.Wait()
}

// client returns the pool's dedicated HTTP client (shared with the fabric's
// range dispatches so probes and ranges see the same transport and timeout).
func (p *WorkerPool) client() *http.Client { return p.hc }

// size returns the number of configured workers.
func (p *WorkerPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// probeLoop periodically re-probes ejected workers that are due. The tick
// only bounds probe latency; the schedule itself (exponential backoff with
// jitter) lives in nextProbeAt.
func (p *WorkerPool) probeLoop() {
	defer p.probeWG.Done()
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeDue()
		}
	}
}

// probeDue launches an asynchronous health probe for every ejected worker
// whose backoff has expired. It is called by the background prober and by
// pick, so probing happens both periodically and under traffic.
func (p *WorkerPool) probeDue() {
	p.mu.Lock()
	now := p.opts.now()
	var due []*fabricWorker
	if !p.closed {
		for _, w := range p.workers {
			if w.state == WorkerEjected && !w.probing && !w.nextProbeAt.After(now) {
				w.probing = true
				due = append(due, w)
			}
		}
		p.probeWG.Add(len(due))
	}
	p.mu.Unlock()
	for _, w := range due {
		go p.probeOne(w)
	}
}

// probeOne performs one health probe and applies its outcome: success
// re-admits the worker, failure doubles the probe backoff (capped) and
// schedules the next attempt.
func (p *WorkerPool) probeOne(w *fabricWorker) {
	defer p.probeWG.Done()
	timeout := p.opts.Timeout
	if timeout > 5*time.Second {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	probe := p.opts.probe
	if probe == nil {
		probe = p.httpProbe
	}
	err := probe(ctx, w.url)

	p.mu.Lock()
	defer p.mu.Unlock()
	w.probing = false
	if err == nil {
		p.readmitLocked(w)
		return
	}
	w.probeBackoff *= 2
	if w.probeBackoff > maxProbeDelay {
		w.probeBackoff = maxProbeDelay
	}
	w.nextProbeAt = p.opts.now().Add(p.jitterLocked(w.probeBackoff))
}

// httpProbe is the default probe: GET {base}/healthz must answer 2xx.
func (p *WorkerPool) httpProbe(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// readmitLocked returns an ejected worker to service. Callers hold p.mu.
func (p *WorkerPool) readmitLocked(w *fabricWorker) {
	w.state = WorkerHealthy
	w.consecFails = 0
	w.probeBackoff = 0
	w.nextProbeAt = time.Time{}
	w.backoffUntil = time.Time{}
	w.readmissions++
}

// jitterLocked spreads d by ±25% so probe schedules decorrelate across
// coordinators. Callers hold p.mu.
func (p *WorkerPool) jitterLocked(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.75 + 0.5*p.rng.Float64()))
}

// pick returns up to max eligible worker URLs for one range's attempt
// sequence: healthy workers first, then suspects, both in round-robin order
// starting at the pool cursor; ejected and backed-off workers are skipped.
// An empty result means "mine locally". Picking also opportunistically
// schedules due probes, so ejected workers are re-examined under traffic
// even between prober ticks.
func (p *WorkerPool) pick(max int) []string {
	p.probeDue()
	p.mu.Lock()
	n := len(p.workers)
	if n == 0 || max <= 0 {
		p.mu.Unlock()
		return nil
	}
	now := p.opts.now()
	start := p.cursor
	p.cursor++
	var healthy, suspect []string
	for i := 0; i < n; i++ {
		w := p.workers[(start+i)%n]
		if w.backoffUntil.After(now) {
			continue
		}
		switch w.state {
		case WorkerHealthy:
			healthy = append(healthy, w.url)
		case WorkerSuspect:
			suspect = append(suspect, w.url)
		}
	}
	p.mu.Unlock()
	out := append(healthy, suspect...)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// find returns the record for url; nil if unknown. Callers hold p.mu.
func (p *WorkerPool) findLocked(url string) *fabricWorker {
	for _, w := range p.workers {
		if w.url == url {
			return w
		}
	}
	return nil
}

// reportSuccess records a successful range dispatch of duration d covering
// replicates replicates: the failure streak resets, a suspect worker
// recovers to healthy, and the latency feeds the worker's histogram and
// autotuning EWMA.
func (p *WorkerPool) reportSuccess(url string, d time.Duration, replicates int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.findLocked(url)
	if w == nil {
		return
	}
	w.successes++
	w.consecFails = 0
	if w.state == WorkerSuspect {
		w.state = WorkerHealthy
	}
	w.observeLatencyLocked(d, replicates, true)
}

// reportFailure records a failed range dispatch and classifies it. A
// load-shedding response (503/429) backs the worker off for its Retry-After
// window without touching the failure streak; anything else — connect errors,
// timeouts, other HTTP statuses, invalid partials — is a hard failure that
// advances the streak and trips the breaker at the ejection threshold.
func (p *WorkerPool) reportFailure(url string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.findLocked(url)
	if w == nil {
		return
	}
	now := p.opts.now()
	if he, ok := err.(*workerHTTPError); ok && he.shedding() {
		w.backoffs++
		window := he.retryAfter
		if window <= 0 {
			window = shedWindow
		}
		w.backoffUntil = now.Add(window)
		return
	}
	w.failures++
	w.consecFails++
	switch {
	case w.state == WorkerEjected:
		// Already ejected (a hedged attempt finishing late); leave the probe
		// schedule alone.
	case w.consecFails >= p.opts.ejectAfter:
		w.state = WorkerEjected
		w.ejections++
		w.probeBackoff = firstProbeDelay
		w.nextProbeAt = now.Add(p.jitterLocked(w.probeBackoff))
	default:
		w.state = WorkerSuspect
	}
}

// noteHedge records one hedged dispatch to url.
func (p *WorkerPool) noteHedge(url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hedges++
	if w := p.findLocked(url); w != nil {
		w.hedged++
	}
}

// noteHedgeLoss records the latency of a hedged dispatch that lost its
// race and was canceled after d. Losing a race is not a failure (the
// worker did nothing wrong) and the observation is censored, so it lands
// in the latency histogram but touches neither health state nor the EWMA.
func (p *WorkerPool) noteHedgeLoss(url string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w := p.findLocked(url); w != nil {
		w.observeLatencyLocked(d, 0, false)
	}
}

// noteLocalFallback records one range mined locally because no remote
// attempt produced a valid partial.
func (p *WorkerPool) noteLocalFallback() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.locals++
}

// autotuneRangeSize suggests a replicate-range size for a job of delta
// replicates from observed worker latency: the slowest non-ejected
// worker's per-replicate EWMA is scaled so one range takes about target
// wall time on it (0 = defaultRangeWall), clamped to [1, delta/workers]
// so every worker still sees work. It returns 0 — "no opinion, use the
// static heuristic" — when no worker has a latency observation yet. Range
// size can never change result bytes (partials merge in replicate order
// and replicate i always consumes seed i), so autotuning is free to pick
// any value.
func (p *WorkerPool) autotuneRangeSize(delta int, target time.Duration) int {
	if delta <= 0 {
		return 0
	}
	if target <= 0 {
		target = defaultRangeWall
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	slowest := 0.0
	for _, w := range p.workers {
		if w.state != WorkerEjected && w.ewmaRepSecs > slowest {
			slowest = w.ewmaRepSecs
		}
	}
	if slowest == 0 || len(p.workers) == 0 {
		return 0
	}
	size := int(target.Seconds() / slowest)
	if hi := delta / len(p.workers); size > hi {
		size = hi
	}
	if size < 1 {
		size = 1
	}
	return size
}

// defaultRangeWall is the per-range wall time autotuning aims for: long
// enough to amortize the HTTP round trip, short enough that retry and
// hedging stay responsive.
const defaultRangeWall = 2 * time.Second

// rangeSize resolves the range size for one remote run of delta replicates
// (a resolved Config.Delta): the pool autotunes toward defaultRangeWall,
// and returns 0 — montecarlo's static split — while it has no latency
// observation yet. Tests may pin the size or move the target through the
// options' seams.
func (p *WorkerPool) rangeSize(delta int) int {
	if p.opts.rangeSize != 0 {
		return p.opts.rangeSize
	}
	return p.autotuneRangeSize(delta, p.opts.rangeWall)
}

// Snapshot returns the pool's current supervision state, workers in
// configuration order.
func (p *WorkerPool) Snapshot() FabricStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.opts.now()
	st := FabricStats{Hedges: p.hedges, LocalFallbacks: p.locals}
	for _, w := range p.workers {
		ws := WorkerStatus{
			URL:                 w.url,
			State:               w.state,
			ConsecutiveFailures: w.consecFails,
			Successes:           w.successes,
			Failures:            w.failures,
			Backoffs:            w.backoffs,
			Ejections:           w.ejections,
			Readmissions:        w.readmissions,
			Hedged:              w.hedged,
		}
		if w.latCount > 0 {
			ws.RangeLatency = &RangeLatencyStats{
				Count:                w.latCount,
				SumSeconds:           w.latSumSeconds,
				Buckets:              append([]uint64(nil), w.latBuckets...),
				EWMAReplicateSeconds: w.ewmaRepSecs,
			}
		}
		if w.state == WorkerEjected && w.nextProbeAt.After(now) {
			ws.NextProbeInSeconds = w.nextProbeAt.Sub(now).Seconds()
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}
