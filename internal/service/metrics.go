package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sigfim"
)

// durationBuckets are the upper bounds, in seconds, of the fixed-bucket
// job-duration histograms. They span the service's real spread: a tiny-Delta
// smin probe finishes in milliseconds while a full significant analysis of a
// large dataset runs for minutes. Fixed buckets keep observation allocation-
// free and make renders trivially mergeable across processes.
var durationBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation. Buckets hold per-bucket (non-cumulative) counts; the render
// accumulates them into Prometheus's cumulative le-bucket form.
type histogram struct {
	counts   []atomic.Int64 // len(durationBuckets)+1; the last is +Inf
	sumNanos atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(durationBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	// SearchFloat64s returns the first bucket whose upper bound is >= the
	// observation, which is exactly Prometheus's le semantics; a value above
	// every bound lands in the trailing +Inf bucket.
	i := sort.SearchFloat64s(durationBuckets, d.Seconds())
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// Metrics is the service's dependency-free metrics registry: atomic counters
// plus fixed-bucket latency histograms per job kind, rendered in the
// Prometheus text exposition format by WritePrometheus. The engine owns one
// (Engine.Metrics) and instruments it from its job moves and the
// replicate-progress hook; values that already live elsewhere (the engine's
// job tally, the cache's counters) are snapshotted at render time rather
// than double-counted. Instrumentation never touches result bytes, so the
// service's bit-identity contracts are unaffected.
type Metrics struct {
	replicates atomic.Int64    // Monte Carlo replicates merged, all jobs
	httpByCode [6]atomic.Int64 // responses by status class; index = code/100

	partialsServed    atomic.Int64 // replicate ranges mined for remote coordinators
	partialReplicates atomic.Int64 // replicates inside those ranges
	partialsShed      atomic.Int64 // partial requests shed with 503 (draining / over cap)

	mu        sync.Mutex
	durations map[string]*histogram // by job kind
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{durations: make(map[string]*histogram)}
}

// duration returns the kind's latency histogram, creating it on first use.
func (m *Metrics) duration(kind string) *histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.durations[kind]
	if h == nil {
		h = newHistogram()
		m.durations[kind] = h
	}
	return h
}

// addReplicates advances the replicate-throughput counter.
func (m *Metrics) addReplicates(n int64) {
	if n > 0 {
		m.replicates.Add(n)
	}
}

// partialServed records one replicate range mined for a remote coordinator
// (the worker side of the distributed fabric) and the replicates it covered.
func (m *Metrics) partialServed(replicates int64) {
	m.partialsServed.Add(1)
	if replicates > 0 {
		m.partialReplicates.Add(replicates)
	}
}

// partialShed records one partial request refused with 503 + Retry-After
// because the worker is draining or over its inflight cap.
func (m *Metrics) partialShed() {
	m.partialsShed.Add(1)
}

// observeHTTP counts one finished HTTP response by status class.
func (m *Metrics) observeHTTP(status int) {
	if c := status / 100; c >= 1 && c < len(m.httpByCode) {
		m.httpByCode[c].Add(1)
	}
}

// snapshot returns the per-bucket counts, the last for +Inf.
func (h *histogram) snapshot() []uint64 {
	counts := make([]uint64, len(h.counts))
	for b := range h.counts {
		counts[b] = uint64(h.counts[b].Load())
	}
	return counts
}

// writeHistogram writes one labeled series of a Prometheus histogram:
// counts holds per-bucket (non-cumulative) counts over the upper bounds,
// the one past them for +Inf (missing cells count 0), and the render
// accumulates them into cumulative le-buckets, then the sum and the count.
func writeHistogram(w io.Writer, name, label string, bounds []float64, counts []uint64, sum float64) {
	var cum uint64
	for b, le := range bounds {
		if b < len(counts) {
			cum += counts[b]
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, label, fnum(le), cum)
	}
	if n := len(bounds); n < len(counts) {
		cum += counts[n]
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, label, cum)
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, label, fnum(sum))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, cum)
}

// metricsSnapshot carries the point-in-time values that live outside the
// registry, read once by Server.snapshot: the /v1/stats body, and the job
// tally whose terminal cells are the per-kind finished counts.
type metricsSnapshot struct {
	Stats
	tally jobTally
}

// fnum renders a float the way Prometheus expects: shortest exact form.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every metric family in the Prometheus text
// exposition format (version 0.0.4). Families and label sets are emitted in
// a deterministic order so scrapes diff cleanly.
func (m *Metrics) WritePrometheus(w io.Writer, snap metricsSnapshot) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP sigfimd_uptime_seconds Seconds since the server started.\n")
	p("# TYPE sigfimd_uptime_seconds gauge\n")
	p("sigfimd_uptime_seconds %s\n", fnum(snap.UptimeSeconds))

	p("# HELP sigfimd_datasets Registered datasets.\n")
	p("# TYPE sigfimd_datasets gauge\n")
	p("sigfimd_datasets %d\n", snap.Datasets)

	p("# HELP sigfimd_jobs_submitted_total Jobs accepted by the engine (cache hits included, rejected submissions excluded).\n")
	p("# TYPE sigfimd_jobs_submitted_total counter\n")
	p("sigfimd_jobs_submitted_total %d\n", snap.Jobs.Submitted)

	p("# HELP sigfimd_jobs_queued Jobs waiting in the bounded queue (queue depth).\n")
	p("# TYPE sigfimd_jobs_queued gauge\n")
	p("sigfimd_jobs_queued %d\n", snap.Jobs.Queued)

	p("# HELP sigfimd_jobs_in_flight Jobs currently executing on the worker pool.\n")
	p("# TYPE sigfimd_jobs_in_flight gauge\n")
	p("sigfimd_jobs_in_flight %d\n", snap.Jobs.InFlight)

	kinds := snap.tally.finishedKinds()
	p("# HELP sigfimd_jobs_finished_total Jobs by kind and terminal state (done includes cache hits).\n")
	p("# TYPE sigfimd_jobs_finished_total counter\n")
	for _, k := range kinds {
		for _, state := range []JobState{StateDone, StateFailed, StateCanceled} {
			p("sigfimd_jobs_finished_total{kind=%q,state=%q} %d\n", k, state, snap.tally[tallyKey{k, state}])
		}
	}

	p("# HELP sigfimd_cache_hits_total Result cache hits.\n")
	p("# TYPE sigfimd_cache_hits_total counter\n")
	p("sigfimd_cache_hits_total %d\n", snap.Cache.Hits)

	p("# HELP sigfimd_cache_misses_total Result cache misses.\n")
	p("# TYPE sigfimd_cache_misses_total counter\n")
	p("sigfimd_cache_misses_total %d\n", snap.Cache.Misses)

	p("# HELP sigfimd_cache_entries Results currently cached.\n")
	p("# TYPE sigfimd_cache_entries gauge\n")
	p("sigfimd_cache_entries %d\n", snap.Cache.Entries)

	p("# HELP sigfimd_replicates_total Monte Carlo replicates merged across all jobs (replicate throughput).\n")
	p("# TYPE sigfimd_replicates_total counter\n")
	p("sigfimd_replicates_total %d\n", m.replicates.Load())

	p("# HELP sigfimd_partials_served_total Replicate ranges mined for remote coordinators (POST /v1/partials).\n")
	p("# TYPE sigfimd_partials_served_total counter\n")
	p("sigfimd_partials_served_total %d\n", m.partialsServed.Load())

	p("# HELP sigfimd_partial_replicates_total Monte Carlo replicates mined inside served partials.\n")
	p("# TYPE sigfimd_partial_replicates_total counter\n")
	p("sigfimd_partial_replicates_total %d\n", m.partialReplicates.Load())

	p("# HELP sigfimd_partials_shed_total Partial requests refused with 503 + Retry-After (draining or over the inflight cap).\n")
	p("# TYPE sigfimd_partials_shed_total counter\n")
	p("sigfimd_partials_shed_total %d\n", m.partialsShed.Load())

	if f := snap.Fabric; f != nil {
		p("# HELP sigfimd_fabric_worker_state Remote worker supervision state (1 = the worker is in the labeled state).\n")
		p("# TYPE sigfimd_fabric_worker_state gauge\n")
		for _, w := range f.Workers {
			for _, state := range []string{sigfim.WorkerHealthy, sigfim.WorkerSuspect, sigfim.WorkerEjected} {
				v := 0
				if w.State == state {
					v = 1
				}
				p("sigfimd_fabric_worker_state{worker=%q,state=%q} %d\n", w.URL, state, v)
			}
		}

		p("# HELP sigfimd_fabric_worker_ranges_total Range dispatches per remote worker by outcome (backoff = honored 503/429 shed responses).\n")
		p("# TYPE sigfimd_fabric_worker_ranges_total counter\n")
		for _, w := range f.Workers {
			p("sigfimd_fabric_worker_ranges_total{worker=%q,outcome=\"success\"} %d\n", w.URL, w.Successes)
			p("sigfimd_fabric_worker_ranges_total{worker=%q,outcome=\"failure\"} %d\n", w.URL, w.Failures)
			p("sigfimd_fabric_worker_ranges_total{worker=%q,outcome=\"backoff\"} %d\n", w.URL, w.Backoffs)
		}

		p("# HELP sigfimd_fabric_worker_ejections_total Circuit-breaker ejections per remote worker.\n")
		p("# TYPE sigfimd_fabric_worker_ejections_total counter\n")
		for _, w := range f.Workers {
			p("sigfimd_fabric_worker_ejections_total{worker=%q} %d\n", w.URL, w.Ejections)
		}

		p("# HELP sigfimd_fabric_worker_readmissions_total Probe-driven re-admissions per remote worker.\n")
		p("# TYPE sigfimd_fabric_worker_readmissions_total counter\n")
		for _, w := range f.Workers {
			p("sigfimd_fabric_worker_readmissions_total{worker=%q} %d\n", w.URL, w.Readmissions)
		}

		p("# HELP sigfimd_fabric_hedged_dispatches_total Hedged (duplicate) range dispatches to straggler-shadowing workers.\n")
		p("# TYPE sigfimd_fabric_hedged_dispatches_total counter\n")
		p("sigfimd_fabric_hedged_dispatches_total %d\n", f.Hedges)

		p("# HELP sigfimd_fabric_local_fallbacks_total Ranges the coordinator mined locally after exhausting remote attempts.\n")
		p("# TYPE sigfimd_fabric_local_fallbacks_total counter\n")
		p("sigfimd_fabric_local_fallbacks_total %d\n", f.LocalFallbacks)

		p("# HELP sigfimd_fabric_range_seconds Wall-clock latency of range dispatches per remote worker (successes and hedge-loser cancellations).\n")
		p("# TYPE sigfimd_fabric_range_seconds histogram\n")
		for _, wk := range f.Workers {
			if rl := wk.RangeLatency; rl != nil {
				writeHistogram(w, "sigfimd_fabric_range_seconds", "worker="+strconv.Quote(wk.URL), sigfim.RangeLatencyBuckets, rl.Buckets, rl.SumSeconds)
			}
		}

		p("# HELP sigfimd_fabric_replicate_seconds_ewma Exponentially weighted moving average of seconds per replicate on successful ranges, per remote worker (drives range-size autotuning).\n")
		p("# TYPE sigfimd_fabric_replicate_seconds_ewma gauge\n")
		for _, w := range f.Workers {
			if w.RangeLatency == nil || w.RangeLatency.EWMAReplicateSeconds == 0 {
				continue
			}
			p("sigfimd_fabric_replicate_seconds_ewma{worker=%q} %s\n", w.URL, fnum(w.RangeLatency.EWMAReplicateSeconds))
		}
	}

	p("# HELP sigfimd_job_duration_seconds Wall-clock duration of computed jobs that ended done, by kind (cache hits excluded).\n")
	p("# TYPE sigfimd_job_duration_seconds histogram\n")
	for _, k := range kinds {
		h := m.duration(k)
		writeHistogram(w, "sigfimd_job_duration_seconds", "kind="+strconv.Quote(k), durationBuckets, h.snapshot(), float64(h.sumNanos.Load())/1e9)
	}

	p("# HELP sigfimd_http_requests_total HTTP responses by status class.\n")
	p("# TYPE sigfimd_http_requests_total counter\n")
	for c := 1; c < len(m.httpByCode); c++ {
		p("sigfimd_http_requests_total{class=\"%dxx\"} %d\n", c, m.httpByCode[c].Load())
	}
}
