package service_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sigfim"
	"sigfim/internal/service"
)

const goldenPath = "../../testdata/golden_input.dat"

func quietOptions(opts service.Options) service.Options {
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return opts
}

// newTestServer builds a service with the golden dataset registered and an
// httptest front end.
func newTestServer(t *testing.T, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.New(quietOptions(opts))
	if _, err := srv.Registry().RegisterFile("golden", goldenPath); err != nil {
		t.Fatalf("register golden: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// doJSON performs a request and decodes the JSON response into out (unless
// nil), returning the status code.
func doJSON(t *testing.T, method, url string, body io.Reader, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// submit posts a job and returns its status.
func submit(t *testing.T, ts *httptest.Server, req service.JobRequest) (service.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), &st)
	return st, code
}

// waitState polls a job until it reaches a terminal state (or the wanted
// state) and returns the final status.
func waitState(t *testing.T, ts *httptest.Server, id string, want service.JobState) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st service.JobStatus
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch st.State {
		case want, service.StateDone, service.StateFailed, service.StateCanceled:
			if st.State != want {
				t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getStats(t *testing.T, ts *httptest.Server) service.Stats {
	t.Helper()
	var st service.Stats
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	return st
}

// TestEndToEndBitIdentical proves the service contract: a job submitted over
// HTTP returns a Report bit-identical (as JSON bytes) to the direct library
// call with the same configuration on the same data.
func TestEndToEndBitIdentical(t *testing.T) {
	direct, err := sigfim.OpenFIMI(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &sigfim.Config{Delta: 120, Seed: 9, Correction: sigfim.CorrectionBY}
	rep, err := direct.Significant(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, service.Options{Workers: 2})
	st, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2, Config: cfg,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (state %s, err %q)", code, st.State, st.Error)
	}
	final := waitState(t, ts, st.ID, service.StateDone)
	if final.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	// The status envelope carries the engine's stored result bytes as they
	// are, so this comparison is bit-identity on every number, string, and
	// field of the report.
	if !bytes.Equal(final.Result, want) {
		t.Errorf("service result differs from direct call.\nservice: %s\ndirect:  %s", final.Result, want)
	}
	if final.Progress.Total == 0 || final.Progress.Done != final.Progress.Total {
		t.Errorf("progress = %+v, want done == total > 0", final.Progress)
	}
}

// TestCacheHit proves the second identical query is served from the cache:
// synchronously, with the same bytes, and with the stats counter advanced.
func TestCacheHit(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	req := service.JobRequest{
		Dataset: "golden", Kind: service.KindSMin, K: 2,
		Config: &sigfim.Config{Delta: 40, Seed: 3},
	}
	st1, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	first := waitState(t, ts, st1.ID, service.StateDone)

	// Same query again, this time with a different (performance-only) worker
	// count: canonicalization must still hit the cache.
	req.Config = &sigfim.Config{Delta: 40, Seed: 3, Workers: 1}
	st2, code := submit(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("second submit: status %d, want 200 (cache hit)", code)
	}
	if st2.State != service.StateDone || !st2.CacheHit {
		t.Fatalf("second submit: state %s cacheHit %v, want done from cache", st2.State, st2.CacheHit)
	}
	if !bytes.Equal(st2.Result, first.Result) {
		t.Errorf("cached bytes differ:\nfirst:  %s\nsecond: %s", first.Result, st2.Result)
	}
	stats := getStats(t, ts)
	if stats.Cache.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", stats.Cache.Hits)
	}
	if stats.Jobs.Completed != 2 {
		t.Errorf("completed = %d, want 2", stats.Jobs.Completed)
	}

	// A different seed is a different key: must miss.
	st3, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSMin, K: 2,
		Config: &sigfim.Config{Delta: 40, Seed: 4},
	})
	if code != http.StatusAccepted {
		t.Fatalf("third submit: status %d, want 202 (miss)", code)
	}
	waitState(t, ts, st3.ID, service.StateDone)
}

// TestCancellation cancels an in-flight job and proves the engine, cache,
// and subsequent jobs are unharmed.
func TestCancellation(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	// Big Delta: long enough that cancellation lands mid-run.
	long, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSMin, K: 2,
		Config: &sigfim.Config{Delta: 200000, Seed: 1},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts, long.ID, service.StateRunning)

	var st service.JobStatus
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+long.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	final := waitState(t, ts, long.ID, service.StateCanceled)
	if len(final.Result) != 0 {
		t.Errorf("canceled job carries a result: %s", final.Result)
	}

	// The canceled computation must not have polluted the cache: the same
	// query resubmitted runs fresh and completes with the correct value.
	direct, err := sigfim.OpenFIMI(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantSMin, err := direct.FindSMin(2, &sigfim.Config{Delta: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	after, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSMin, K: 2,
		Config: &sigfim.Config{Delta: 40, Seed: 7},
	})
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d", code)
	}
	done := waitState(t, ts, after.ID, service.StateDone)
	var res service.SMinResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.SMin != wantSMin {
		t.Errorf("post-cancel s_min = %d, want %d (direct call)", res.SMin, wantSMin)
	}
	stats := getStats(t, ts)
	if stats.Jobs.Canceled != 1 {
		t.Errorf("canceled counter = %d, want 1", stats.Jobs.Canceled)
	}
	if stats.Jobs.InFlight != 0 {
		t.Errorf("in-flight = %d after all jobs ended", stats.Jobs.InFlight)
	}
}

// TestInFlightSettledAtTerminalState: a client that has read a job's
// terminal state reads in_flight = 0 from /v1/stats right after, for each
// of 50 short jobs run one at a time. The client polls the job without
// sleeping, so it reads the terminal state as soon as the engine sets it.
func TestInFlightSettledAtTerminalState(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	for i := 0; i < 50; i++ {
		st, code := submit(t, ts, service.JobRequest{
			Dataset: "golden", Kind: service.KindClosed, MinSupport: 200 + i,
		})
		if code != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d", i, code)
		}
		for st.State == service.StateQueued || st.State == service.StateRunning {
			if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st); code != http.StatusOK {
				t.Fatalf("job %d: GET status %d", i, code)
			}
		}
		if st.State != service.StateDone {
			t.Fatalf("job %d ended %s (error %q)", i, st.State, st.Error)
		}
		if n := getStats(t, ts).Jobs.InFlight; n != 0 {
			t.Fatalf("job %d: in_flight = %d after its terminal state was read", i, n)
		}
	}
}

// TestQueueBackpressure fills the bounded queue and verifies the 503 path.
func TestQueueBackpressure(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1, QueueCap: 1})
	long := func(seed uint64) service.JobRequest {
		return service.JobRequest{
			Dataset: "golden", Kind: service.KindSMin, K: 2,
			Config: &sigfim.Config{Delta: 200000, Seed: seed},
		}
	}
	a, code := submit(t, ts, long(100))
	if code != http.StatusAccepted {
		t.Fatalf("job a: status %d", code)
	}
	waitState(t, ts, a.ID, service.StateRunning) // a occupies the worker
	b, code := submit(t, ts, long(101))
	if code != http.StatusAccepted {
		t.Fatalf("job b: status %d", code)
	}
	var errBody map[string]string
	cBody, _ := json.Marshal(long(102))
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(cBody), &errBody); code != http.StatusServiceUnavailable {
		t.Fatalf("job c: status %d, want 503 (queue full)", code)
	}
	if !strings.Contains(errBody["error"], "queue full") {
		t.Errorf("503 body = %v", errBody)
	}
	for _, id := range []string{b.ID, a.ID} { // cancel queued first, then running
		if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil, nil); code != http.StatusOK {
			t.Fatalf("cancel %s: status %d", id, code)
		}
	}
	waitState(t, ts, a.ID, service.StateCanceled)
	waitState(t, ts, b.ID, service.StateCanceled)
}

// TestConcurrentSubmissions hammers the submit path from many goroutines
// (the acceptance criterion's race-detector scenario) and verifies identical
// requests converge to identical bytes.
func TestConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 4, QueueCap: 64})
	const goroutines = 12
	ids := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code := submit(t, ts, service.JobRequest{
				Dataset: "golden", Kind: service.KindSMin, K: 2,
				Config: &sigfim.Config{Delta: 30, Seed: uint64(i % 3)},
			})
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submit %d: status %d", i, code)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	bySeed := make(map[uint64][]byte)
	for i, id := range ids {
		if id == "" {
			continue
		}
		st := waitState(t, ts, id, service.StateDone)
		seed := uint64(i % 3)
		if prev, ok := bySeed[seed]; ok {
			if !bytes.Equal(prev, st.Result) {
				t.Errorf("seed %d: divergent results %s vs %s", seed, prev, st.Result)
			}
		} else {
			bySeed[seed] = st.Result
		}
	}
}

// TestUploadGzipAndContentAddressing uploads a gzip-compressed copy of the
// golden dataset under a new name and verifies (a) transparent gzip
// decoding, (b) hash equality with the file-registered original, and (c)
// that the result cache is content-addressed: a query against the upload
// hits results computed against the original.
func TestUploadGzipAndContentAddressing(t *testing.T) {
	srv, ts := newTestServer(t, service.Options{Workers: 1})
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	var info service.DatasetInfo
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?name=uploaded", bytes.NewReader(gz.Bytes()), &info)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	_, goldenInfo, _ := srv.Registry().Get("golden")
	if info.Hash != goldenInfo.Hash {
		t.Fatalf("uploaded hash %s != golden hash %s", info.Hash, goldenInfo.Hash)
	}

	cfg := &sigfim.Config{Delta: 30, Seed: 11}
	st1, _ := submit(t, ts, service.JobRequest{Dataset: "golden", Kind: service.KindSMin, K: 2, Config: cfg})
	first := waitState(t, ts, st1.ID, service.StateDone)
	st2, code := submit(t, ts, service.JobRequest{Dataset: "uploaded", Kind: service.KindSMin, K: 2, Config: cfg})
	if code != http.StatusOK || !st2.CacheHit {
		t.Fatalf("query against upload: status %d cacheHit %v, want content-addressed hit", code, st2.CacheHit)
	}
	if !bytes.Equal(st2.Result, first.Result) {
		t.Error("content-addressed hit returned different bytes")
	}
}

// TestHTTPErrors walks the client-error surface.
func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	cases := []struct {
		name, method, url, body string
		want                    int
	}{
		{"unknown dataset", "POST", "/v1/jobs", `{"dataset":"nope","kind":"smin","k":2}`, 404},
		{"bad kind", "POST", "/v1/jobs", `{"dataset":"golden","kind":"mystery","k":2}`, 400},
		{"bad k", "POST", "/v1/jobs", `{"dataset":"golden","kind":"smin","k":0}`, 400},
		{"bad algorithm", "POST", "/v1/jobs", `{"dataset":"golden","kind":"smin","k":2,"config":{"Algorithm":"quantum"}}`, 400},
		{"unknown field", "POST", "/v1/jobs", `{"dataset":"golden","kind":"smin","k":2,"bogus":1}`, 400},
		{"job not found", "GET", "/v1/jobs/j999999", "", 404},
		{"cancel not found", "DELETE", "/v1/jobs/j999999", "", 404},
		{"dataset not found", "GET", "/v1/datasets/nope", "", 404},
		{"upload without name", "POST", "/v1/datasets", "1 2 3\n", 400},
		{"upload bad name", "POST", "/v1/datasets?name=a/b", "1 2 3\n", 400},
		{"upload bad body", "POST", "/v1/datasets?name=bad", "not a fimi line\n", 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			var e map[string]string
			if code := doJSON(t, tc.method, ts.URL+tc.url, body, &e); code != tc.want {
				t.Fatalf("status %d, want %d (body %v)", code, tc.want, e)
			}
		})
	}

	// Duplicate name with different content conflicts; identical content is
	// an idempotent no-op.
	var e map[string]string
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets?name=dup", strings.NewReader("1 2\n"), nil); code != 201 {
		t.Fatalf("first dup upload: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets?name=dup", strings.NewReader("3 4\n"), &e); code != 409 {
		t.Fatalf("conflicting re-upload: %d, want 409", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets?name=dup", strings.NewReader("1 2\n"), nil); code != 201 {
		t.Fatalf("idempotent re-upload: %d, want 201", code)
	}
}

// TestGracefulShutdown verifies drain semantics: queued jobs are canceled,
// running jobs are cooperatively canceled once the drain deadline passes,
// and post-shutdown submissions are refused.
func TestGracefulShutdown(t *testing.T) {
	srv := service.New(quietOptions(service.Options{Workers: 1, QueueCap: 4}))
	if _, err := srv.Registry().RegisterFile("golden", goldenPath); err != nil {
		t.Fatal(err)
	}
	long := func(seed uint64) service.JobRequest {
		return service.JobRequest{
			Dataset: "golden", Kind: service.KindSMin, K: 2,
			Config: &sigfim.Config{Delta: 200000, Seed: seed},
		}
	}
	running, err := srv.Engine().Submit(long(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := srv.Engine().Get(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	queued, err := srv.Engine().Submit(long(2))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("shutdown error = %v, want DeadlineExceeded (running job had to be canceled)", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		st, err := srv.Engine().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateCanceled {
			t.Errorf("job %s state = %s, want canceled", id, st.State)
		}
	}
	if _, err := srv.Engine().Submit(long(3)); err == nil {
		t.Error("submit after shutdown succeeded")
	}
	// Idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestJobRetention verifies the engine's job-table bound: once more jobs
// are tracked than it retains (2 here), the oldest finished records are evicted
// (404), while the result cache still answers their queries.
func TestJobRetention(t *testing.T) {
	_, ts := newTestServer(t, service.RetainJobs(service.Options{Workers: 1, QueueCap: 1}, 2))
	var ids []string
	for seed := uint64(0); seed < 3; seed++ {
		st, code := submit(t, ts, service.JobRequest{
			Dataset: "golden", Kind: service.KindSMin, K: 2,
			Config: &sigfim.Config{Delta: 20, Seed: seed},
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d", seed, code)
		}
		waitState(t, ts, st.ID, service.StateDone)
		ids = append(ids, st.ID)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[0], nil, nil); code != http.StatusNotFound {
		t.Errorf("oldest job: status %d, want 404 (evicted)", code)
	}
	for _, id := range ids[1:] {
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, nil); code != http.StatusOK {
			t.Errorf("job %s: status %d, want retained", id, code)
		}
	}
	// The evicted job's RESULT is still served — from the cache.
	st, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSMin, K: 2,
		Config: &sigfim.Config{Delta: 20, Seed: 0},
	})
	if code != http.StatusOK || !st.CacheHit {
		t.Errorf("evicted job's query: status %d cacheHit %v, want cache hit", code, st.CacheHit)
	}
}

// TestUploadTooLarge verifies oversized uploads map to 413, not 400.
func TestUploadTooLarge(t *testing.T) {
	srv := service.New(quietOptions(service.Options{Workers: 1, MaxUploadBytes: 16}))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	body := strings.Repeat("1 2 3\n", 100)
	var e map[string]string
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?name=big", strings.NewReader(body), &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%v), want 413", code, e)
	}
}

// TestSMinRejectsSwapNull pins the wrong-model guard: FindSMin always uses
// the independence null, so a swap-null smin request must be refused rather
// than silently answered with the wrong model.
func TestSMinRejectsSwapNull(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	var e map[string]string
	body := `{"dataset":"golden","kind":"smin","k":2,"config":{"SwapNull":true}}`
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body), &e); code != http.StatusBadRequest {
		t.Fatalf("status %d (%v), want 400", code, e)
	}
	if !strings.Contains(e["error"], "SwapNull") {
		t.Errorf("error %q does not mention SwapNull", e["error"])
	}
}

// TestCacheLRU exercises the LRU behind the result cache directly:
// eviction order, recency refresh on Get, hit and miss counts, a re-put
// that keeps the first value, and capacity 0 turned off. The trace store's
// tests live with the trace package.
func TestCacheLRU(t *testing.T) {
	c := service.NewLRU[[]byte](2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Error("a lost")
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Error("c lost")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	hits, misses := c.Counters()
	if hits != 3 || misses != 1 {
		t.Errorf("counters = %d hits %d misses, want 3/1", hits, misses)
	}
	// A re-put refreshes the key but keeps its first value, without growing.
	c.Put("a", []byte("A2"))
	if v, _ := c.Get("a"); string(v) != "A" {
		t.Errorf("re-put replaced the first value: %q", v)
	}
	if c.Len() != 2 {
		t.Errorf("len after re-put = %d, want 2", c.Len())
	}

	// Capacity 0 turns it off: never stores, never hits.
	d := service.NewLRU[[]byte](0)
	d.Put("x", []byte("X"))
	if _, ok := d.Get("x"); ok {
		t.Error("disabled cache returned a value")
	}
	if d.Len() != 0 {
		t.Errorf("disabled cache len = %d", d.Len())
	}
}

// TestStatsEndpointShape sanity-checks /healthz and /v1/stats, and the
// dataset listing endpoints.
func TestStatsEndpointShape(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	var h map[string]string
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &h); code != 200 || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, h)
	}
	st := getStats(t, ts)
	if st.Datasets != 1 {
		t.Errorf("datasets = %d, want 1", st.Datasets)
	}
	var list struct {
		Datasets []service.DatasetInfo `json:"datasets"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets", nil, &list); code != 200 {
		t.Fatalf("list datasets: %d", code)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "golden" || list.Datasets[0].Hash == "" {
		t.Errorf("dataset listing = %+v", list.Datasets)
	}
	var one service.DatasetInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/golden", nil, &one); code != 200 || one.Hash != list.Datasets[0].Hash {
		t.Errorf("get dataset: %d %+v", code, one)
	}
	var jobs struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &jobs); code != 200 || len(jobs.Jobs) != 0 {
		t.Errorf("job listing: %d %+v", code, jobs.Jobs)
	}
}

// TestJobWorkersBounded: a job asking for 1<<20 workers runs with the
// server's GOMAXPROCS instead and stores the bytes of a serial run.
func TestJobWorkersBounded(t *testing.T) {
	direct, err := sigfim.OpenFIMI(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := direct.Significant(2, &sigfim.Config{Delta: 8, Seed: 9, Workers: 1, Correction: sigfim.CorrectionBY})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, service.Options{Workers: 1})
	st, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Delta: 8, Seed: 9, Workers: 1 << 20, Correction: sigfim.CorrectionBY},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (err %q)", code, st.Error)
	}
	final := waitState(t, ts, st.ID, service.StateDone)
	if final.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	if !bytes.Equal(final.Result, want) {
		t.Errorf("job with 1<<20 workers differs from a serial run.\njob:    %s\nserial: %s", final.Result, want)
	}
}
