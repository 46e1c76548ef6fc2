package service_test

import (
	"net/http"
	"strconv"
	"testing"

	"sigfim"
	"sigfim/internal/service"
	"sigfim/internal/trace"
)

// Tests for the trace API: GET /v1/jobs/{id}/trace serves a completed job's
// span tree out of a bounded LRU store that evicts independently of job
// records.

// getTrace fetches one job's trace, returning the decoded trace (when 200)
// and the status code.
func getTrace(t *testing.T, base, id string) (*trace.Trace, int) {
	t.Helper()
	var tr trace.Trace
	code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id+"/trace", nil, &tr)
	if code != http.StatusOK {
		return nil, code
	}
	return &tr, code
}

func sminRequest(seed uint64) service.JobRequest {
	return service.JobRequest{
		Dataset: "golden", Kind: service.KindSMin, K: 2,
		Config: &sigfim.Config{Delta: 40, Seed: seed},
	}
}

func TestJobTraceRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	st, code := submit(t, ts, sminRequest(7))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts, st.ID, service.StateDone)

	tr, code := getTrace(t, ts.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	if tr.TraceID == "" || tr.JobID != st.ID {
		t.Fatalf("trace ids wrong: trace_id=%q job_id=%q (want job %q)", tr.TraceID, tr.JobID, st.ID)
	}

	spansByName := make(map[string]trace.Span)
	ids := make(map[int]bool)
	for _, sp := range tr.Spans {
		spansByName[sp.Name] = sp
		ids[sp.ID] = true
	}
	for _, want := range []string{"job", "queued", "dataset.warmup", "montecarlo.mine", "montecarlo.halving"} {
		if _, ok := spansByName[want]; !ok {
			t.Errorf("trace lacks a %q span", want)
		}
	}
	// The job root carries the terminal state; every non-root span's parent
	// must exist so the CLI can always reconstruct the tree.
	root := spansByName["job"]
	if got := attrValue(root, "state"); got != string(service.StateDone) {
		t.Errorf("job span state = %q, want %q", got, service.StateDone)
	}
	if root.Parent != 0 {
		t.Errorf("job span has parent %d, want root", root.Parent)
	}
	for _, sp := range tr.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %q (id %d) references missing parent %d", sp.Name, sp.ID, sp.Parent)
		}
	}
	if q := spansByName["queued"]; q.Parent != root.ID {
		t.Errorf("queued span parent = %d, want the job root %d", q.Parent, root.ID)
	}
}

func attrValue(sp trace.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func TestJobTraceUnknown404(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	if _, code := getTrace(t, ts.URL, "never-existed"); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", code)
	}
}

// TestTraceEvictionIndependentOfJobRecord pins the LRU contract: with
// TraceRetention 1, an older job's trace answers 404 while the job record
// itself still answers 200 — traces age out on their own schedule.
func TestTraceEvictionIndependentOfJobRecord(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1, TraceRetention: 1})

	a, _ := submit(t, ts, sminRequest(1))
	waitState(t, ts, a.ID, service.StateDone)
	if _, code := getTrace(t, ts.URL, a.ID); code != http.StatusOK {
		t.Fatalf("job A trace before eviction: status %d", code)
	}

	b, _ := submit(t, ts, sminRequest(2)) // different seed: a computed job, not a cache hit
	waitState(t, ts, b.ID, service.StateDone)

	if _, code := getTrace(t, ts.URL, a.ID); code != http.StatusNotFound {
		t.Fatalf("job A trace after eviction: status %d, want 404", code)
	}
	var st service.JobStatus
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+a.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("job A record: status %d, want 200 (eviction must not touch job records)", code)
	}
	if tr, code := getTrace(t, ts.URL, b.ID); code != http.StatusOK || tr.JobID != b.ID {
		t.Fatalf("job B trace: status %d, job_id %v", code, tr)
	}
}

// TestCacheHitJobHasTrace: a job served synchronously from the result cache
// still records a (one-span) trace, so `sigfim jobs trace` works uniformly.
func TestCacheHitJobHasTrace(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})

	first, _ := submit(t, ts, sminRequest(3))
	waitState(t, ts, first.ID, service.StateDone)

	second, code := submit(t, ts, sminRequest(3))
	if code != http.StatusOK || !second.CacheHit {
		t.Fatalf("second submit: status %d, cacheHit %v, want synchronous cache hit", code, second.CacheHit)
	}
	tr, code := getTrace(t, ts.URL, second.ID)
	if code != http.StatusOK {
		t.Fatalf("cache-hit trace: status %d", code)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "job" {
		t.Fatalf("cache-hit trace spans = %+v, want exactly one job span", tr.Spans)
	}
	if got := attrValue(tr.Spans[0], "cache"); got != "hit" {
		t.Fatalf("cache-hit span cache attr = %q, want \"hit\"", got)
	}
}

// TestFabricRangeMetrics: a coordinator's /metrics must expose the
// per-worker range-latency histogram and autotuning EWMA after a
// distributed job.
func TestFabricRangeMetrics(t *testing.T) {
	_, worker := newTestServer(t, service.Options{Workers: 1})
	_, coord := newTestServer(t, service.Options{
		Workers: 1, RemoteWorkers: []string{worker.URL},
	})

	st, _ := submit(t, coord, sminRequest(11))
	waitState(t, coord, st.ID, service.StateDone)

	samples, body := scrapeMetrics(t, coord.URL)
	count := samples[`sigfimd_fabric_range_seconds_count{worker="`+worker.URL+`"}`]
	if count < 1 {
		t.Fatalf("sigfimd_fabric_range_seconds_count missing or zero; metrics body:\n%s", body)
	}
	inf := samples[`sigfimd_fabric_range_seconds_bucket{worker="`+worker.URL+`",le="+Inf"}`]
	if inf != count {
		t.Fatalf("+Inf bucket %v != count %v (histogram not cumulative)", inf, count)
	}
	if ewma := samples[`sigfimd_fabric_replicate_seconds_ewma{worker="`+worker.URL+`"}`]; ewma <= 0 {
		t.Fatalf("sigfimd_fabric_replicate_seconds_ewma missing or zero; metrics body:\n%s", body)
	}
}

// TestCoordinatorForwardsRangeSize: a coordinator's dispatch settings reach
// the fabric. With RemoteRangeSize 10, every montecarlo.mine span of a
// distributed job must split its Delta replicates into Delta/10 ranges of
// 10.
func TestCoordinatorForwardsRangeSize(t *testing.T) {
	const delta = 40
	_, worker := newTestServer(t, service.Options{Workers: 1})
	_, coord := newTestServer(t, service.Options{
		Workers: 1, RemoteWorkers: []string{worker.URL}, RemoteRangeSize: 10,
	})

	st, _ := submit(t, coord, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Delta: delta, Seed: 5},
	})
	waitState(t, coord, st.ID, service.StateDone)

	tr, code := getTrace(t, coord.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	mines := 0
	for _, sp := range tr.Spans {
		if sp.Name != "montecarlo.mine" {
			continue
		}
		mines++
		if got := attrValue(sp, "replicates"); got != strconv.Itoa(delta) {
			t.Errorf("montecarlo.mine replicates = %q, want %d", got, delta)
		}
		if got := attrValue(sp, "range_size"); got != "10" {
			t.Errorf("montecarlo.mine range_size = %q, want 10", got)
		}
		if got := attrValue(sp, "ranges"); got != strconv.Itoa(delta/10) {
			t.Errorf("montecarlo.mine ranges = %q, want %d", got, delta/10)
		}
	}
	if mines == 0 {
		t.Fatal("trace lacks a montecarlo.mine span")
	}
}
