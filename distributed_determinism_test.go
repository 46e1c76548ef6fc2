package sigfim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigfim"
	"sigfim/internal/service"
)

// discardLogger silences the services' request logs in test output.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// End-to-end distributed determinism: a coordinator sharding Algorithm 1's
// Monte Carlo replicates across real sigfimd workers (in-process httptest
// servers running the full service stack) must produce byte-identical
// reports to the single-process run — for both null models, any coordinator
// worker count, and with dead workers in the pool. This is the PR's hard
// invariant: the existing golden fixtures pin the single-process path, and
// these tests pin the distributed path to it.

// The tests are external (package sigfim_test) because a sigfim-package test
// importing internal/service would close an import cycle.

// startWorkers boots n sigfimd worker instances with the golden dataset
// registered and returns their base URLs. Each worker is a complete service;
// the coordinator addresses the dataset by content hash.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := service.New(service.Options{Logger: discardLogger()})
		if _, err := srv.Registry().RegisterFile("golden", "testdata/golden_input.dat"); err != nil {
			t.Fatalf("register golden dataset: %v", err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		urls[i] = hs.URL
	}
	return urls
}

// deadWorker returns a URL that refuses every connection.
func deadWorker(t *testing.T) string {
	t.Helper()
	hs := httptest.NewServer(nil)
	url := hs.URL
	hs.Close()
	return url
}

func goldenDataset(t *testing.T) *sigfim.Dataset {
	t.Helper()
	d, err := sigfim.OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatalf("open golden fixture: %v", err)
	}
	return d
}

// mustJSON marshals a report for byte-level comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedSignificantBitIdentity is the acceptance criterion: a
// coordinator fanning out over two live workers produces byte-identical
// Significant reports to the single-process run, for coordinator worker
// counts 1, 4, and 8, under both the independence and the swap null.
func TestDistributedSignificantBitIdentity(t *testing.T) {
	d := goldenDataset(t)
	workers := startWorkers(t, 2)

	nulls := []struct {
		name string
		cfg  func() *sigfim.Config
	}{
		{"independence", func() *sigfim.Config {
			return &sigfim.Config{Delta: 120, Seed: 9, WithBaseline: true}
		}},
		{"swap", func() *sigfim.Config {
			return &sigfim.Config{Delta: 60, Seed: 9, SwapNull: true}
		}},
	}
	for _, null := range nulls {
		t.Run(null.name, func(t *testing.T) {
			local, err := d.Significant(2, null.cfg())
			if err != nil {
				t.Fatal(err)
			}
			localJSON := mustJSON(t, local)
			for _, w := range []int{1, 4, 8} {
				cfg := null.cfg()
				cfg.Workers = w
				cfg.RemotePool = testPool(t, workers, sigfim.WorkerPoolOptions{})
				dist, err := d.Significant(2, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got := mustJSON(t, dist); !reflect.DeepEqual(got, localJSON) {
					t.Fatalf("workers=%d: distributed report differs from single-process report\nlocal: %s\ndist:  %s", w, localJSON, got)
				}
			}
		})
	}
}

// TestDistributedWestfallYoungBitIdentity extends the acceptance criterion to
// the resampling correction: Westfall–Young needs one min-p statistic per
// Monte Carlo replicate, so the per-replicate minima now ride the fabric's
// partials and must survive sharding, range splits, and ordered merges
// untouched. A coordinator fanning out over two live workers must produce
// byte-identical Westfall–Young reports to the single-process run — adjusted
// p-values included — for coordinator worker counts 1, 4, and 8, under both
// the independence and the swap null.
func TestDistributedWestfallYoungBitIdentity(t *testing.T) {
	d := goldenDataset(t)
	workers := startWorkers(t, 2)

	nulls := []struct {
		name string
		cfg  func() *sigfim.Config
	}{
		{"independence", func() *sigfim.Config {
			return &sigfim.Config{Delta: 120, Seed: 9, Correction: sigfim.CorrectionWestfallYoung}
		}},
		{"swap", func() *sigfim.Config {
			return &sigfim.Config{Delta: 60, Seed: 9, SwapNull: true, Correction: sigfim.CorrectionWestfallYoung}
		}},
	}
	for _, null := range nulls {
		t.Run(null.name, func(t *testing.T) {
			local, err := d.Significant(2, null.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if local.Baseline == nil || local.Baseline.Correction != sigfim.CorrectionWestfallYoung {
				t.Fatalf("local baseline = %+v, want westfall-young", local.Baseline)
			}
			localJSON := mustJSON(t, local)

			// Drive the fabric through an instrumented pool so a silent local
			// fallback (which would also be bit-identical) cannot masquerade as
			// the remote path: the min-p partials must actually ride the wire.
			pool := sigfim.NewWorkerPool(workers, sigfim.WorkerPoolOptions{})
			defer pool.Close()
			for _, w := range []int{1, 4, 8} {
				cfg := null.cfg()
				cfg.Workers = w
				cfg.RemotePool = pool
				dist, err := d.Significant(2, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got := mustJSON(t, dist); !reflect.DeepEqual(got, localJSON) {
					t.Fatalf("workers=%d: distributed westfall-young report differs from single-process report\nlocal: %s\ndist:  %s", w, localJSON, got)
				}
			}
			st := pool.Snapshot()
			if st.LocalFallbacks > 0 {
				t.Fatalf("%d ranges fell back to local mining; the remote min-p path was not exercised", st.LocalFallbacks)
			}
			var successes uint64
			for _, ws := range st.Workers {
				successes += ws.Successes
			}
			if successes == 0 {
				t.Fatal("no successful remote dispatches recorded; the remote min-p path was not exercised")
			}
		})
	}
}

// TestDistributedFindSMin pins the smin path (Algorithm 1 alone, always the
// independence null) across the fabric, including a pinned range size.
func TestDistributedFindSMin(t *testing.T) {
	d := goldenDataset(t)
	workers := startWorkers(t, 2)

	local, err := d.FindSMin(2, &sigfim.Config{Delta: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, rangeSize := range []int{0, 1, 13} {
		got, err := d.FindSMin(2, &sigfim.Config{
			Delta: 120, Seed: 9,
			RemotePool: testPool(t, workers, sigfim.WorkerPoolOptions{RangeSize: rangeSize}),
		})
		if err != nil {
			t.Fatalf("rangeSize=%d: %v", rangeSize, err)
		}
		if got != local {
			t.Fatalf("rangeSize=%d: distributed s_min = %d, single-process = %d", rangeSize, got, local)
		}
	}
}

// TestDistributedWorkerFailure: ranges landing on a dead worker must be
// retried on the live one (and, with every worker dead, mined locally
// through the identical code path) without changing a byte of the report.
func TestDistributedWorkerFailure(t *testing.T) {
	d := goldenDataset(t)
	local, err := d.Significant(2, &sigfim.Config{Delta: 120, Seed: 9, WithBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	localJSON := mustJSON(t, local)

	live := startWorkers(t, 1)
	pools := map[string][]string{
		"dead worker in pool": {deadWorker(t), live[0]},
		"all workers dead":    {deadWorker(t), deadWorker(t)},
	}
	for name, pool := range pools {
		t.Run(name, func(t *testing.T) {
			dist, err := d.Significant(2, &sigfim.Config{
				Delta: 120, Seed: 9, WithBaseline: true,
				RemotePool: testPool(t, pool, sigfim.WorkerPoolOptions{}),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, dist); !reflect.DeepEqual(got, localJSON) {
				t.Fatalf("report with %s differs from single-process report", name)
			}
		})
	}
}

// TestCoordinatorServiceBitIdentity drives the full service stack: a
// coordinator sigfimd (Options.RemoteWorkers) executes a job by sharding
// across two worker sigfimds, and its stored result bytes equal those of an
// identical job on a plain local sigfimd. This also pins that RemoteWorkers
// stays out of the cache key — the coordinator serves the same bytes a local
// server would.
func TestCoordinatorServiceBitIdentity(t *testing.T) {
	workers := startWorkers(t, 2)

	runJob := func(opts service.Options) []byte {
		t.Helper()
		srv := service.New(opts)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		if _, err := srv.Registry().RegisterFile("golden", "testdata/golden_input.dat"); err != nil {
			t.Fatal(err)
		}
		st, err := srv.Engine().Submit(service.JobRequest{
			Dataset: "golden", Kind: service.KindSignificant, K: 2,
			Config: &sigfim.Config{Delta: 120, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for !st.State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job stuck in state %s", st.State)
			}
			time.Sleep(20 * time.Millisecond)
			if st, err = srv.Engine().Get(st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if st.State != service.StateDone {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		return st.Result
	}

	localResult := runJob(service.Options{Logger: discardLogger()})
	coordResult := runJob(service.Options{Logger: discardLogger(), RemoteWorkers: workers})
	if !reflect.DeepEqual(coordResult, localResult) {
		t.Fatalf("coordinator job result differs from local job result\nlocal: %s\ncoord: %s", localResult, coordResult)
	}
}

// TestMineReplicateRangeHashCheck: the worker entry point refuses a request
// addressed to a different dataset instead of silently mining the wrong one.
func TestMineReplicateRangeHashCheck(t *testing.T) {
	d := goldenDataset(t)
	_, err := d.MineReplicateRange(context.Background(), sigfim.PartialRequest{
		DatasetHash: "not-the-hash",
		From:        0, To: 1, K: 2, Floor: 2, Seeds: []uint64{42},
	})
	if err == nil {
		t.Fatal("hash mismatch accepted")
	}
}

// ---------------------------------------------------------------------------
// Fault injection. chaosWorker is a proxy in front of a real sigfimd worker
// that mangles POST /v1/partials traffic according to a fault schedule:
// dropped connections, latency spikes past the per-range deadline, mid-body
// truncation, corrupt JSON, wrong-range echoes, 500s, and 503 load
// shedding. The tests below drive whole analyses through the
// proxy and assert the merged report stays byte-identical to a
// single-process run under every injected fault class — the fabric's
// supervision, retry, validation, and local-fallback machinery may change
// where a range is mined, never what it computes.

const (
	faultDrop       = "drop"       // connection severed before any response
	faultLatency    = "latency"    // response delayed past the client deadline
	faultTruncate   = "truncate"   // 200 with a mid-body truncated payload
	faultCorrupt    = "corrupt"    // 200 with invalid JSON
	faultWrongRange = "wrongrange" // valid partial echoing somebody else's range
	fault500        = "500"        // hard server error
	fault503        = "503"        // load shedding with Retry-After
)

// chaosSchedule lists every fault class once. The proxy injects them in
// this order into the first requests it receives, whatever their range, and
// forwards every later request cleanly. Each class is therefore injected
// exactly once per run, however the coordinator schedules its ranges,
// provided the pool keeps dispatching until the last class: chaosPool never
// ejects the worker over the six hard faults, and the shedding fault sits
// last so its Retry-After window cannot divert an uninjected class to the
// local fallback.
var chaosSchedule = []string{
	faultDrop, faultLatency, faultTruncate, faultCorrupt, faultWrongRange, fault500, fault503,
}

// testPool supervises urls for the rest of the test.
func testPool(t *testing.T, urls []string, opts sigfim.WorkerPoolOptions) *sigfim.WorkerPool {
	t.Helper()
	pool := sigfim.NewWorkerPool(urls, opts)
	t.Cleanup(pool.Close)
	return pool
}

// chaosPool supervises the chaos proxy with an ejection threshold above the
// number of hard faults in the schedule, so no interleaving of their
// outcomes can eject the worker before every class was injected.
func chaosPool(t *testing.T, chaos string) *sigfim.WorkerPool {
	t.Helper()
	return testPool(t, []string{chaos}, sigfim.WorkerPoolOptions{
		Timeout:    500 * time.Millisecond,
		EjectAfter: len(chaosSchedule),
		RangeSize:  3,
	})
}

// chaosWorker proxies /v1/partials to target, applying the schedule one
// entry per request. The returned map counts injections per fault so tests
// can assert that every class was injected exactly once.
func chaosWorker(t *testing.T, target string) (string, *sync.Map) {
	t.Helper()
	var idx atomic.Int64
	injected := &sync.Map{}
	count := func(fault string) {
		v, _ := injected.LoadOrStore(fault, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	forward := func(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return nil, false
		}
		resp, err := http.Post(target+"/v1/partials", "application/json", bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return nil, false
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			http.Error(w, "upstream failed", http.StatusBadGateway)
			return nil, false
		}
		return out, true
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		i := int(idx.Add(1) - 1)
		if i >= len(chaosSchedule) {
			if out, ok := forward(w, r); ok {
				w.Header().Set("Content-Type", "application/json")
				w.Write(out)
			}
			return
		}
		fault := chaosSchedule[i]
		count(fault)
		switch fault {
		case faultDrop:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case faultLatency:
			// Stall past the coordinator's per-range deadline; leave when the
			// client gives up so server shutdown stays prompt. The body must be
			// drained first: the server only watches for a client disconnect
			// (which cancels r.Context()) once the request body is consumed.
			io.Copy(io.Discard, r.Body)
			select {
			case <-time.After(5 * time.Second):
			case <-r.Context().Done():
			}
		case faultTruncate:
			if out, ok := forward(w, r); ok {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Length", strconv.Itoa(len(out)))
				w.Write(out[:len(out)/2]) // short write; Go closes the conn mid-body
			}
		case faultCorrupt:
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"from": 0, "to": `))
		case faultWrongRange:
			out, ok := forward(w, r)
			if !ok {
				return
			}
			var rp sigfim.RangePartial
			if err := json.Unmarshal(out, &rp); err != nil {
				t.Errorf("chaos proxy: decode upstream partial: %v", err)
				return
			}
			rp.From++ // a partial for somebody else's range
			rp.To++
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(&rp)
		case fault500:
			http.Error(w, "chaos", http.StatusInternalServerError)
		case fault503:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"chaos shedding"}`)
		}
	}))
	t.Cleanup(hs.Close)
	return hs.URL, injected
}

// assertChaosCoverage fails unless every fault class in the schedule was
// injected exactly once — otherwise the bit-identity claim silently shrank.
func assertChaosCoverage(t *testing.T, injected *sync.Map) {
	t.Helper()
	for _, fault := range chaosSchedule {
		n := int64(0)
		if v, ok := injected.Load(fault); ok {
			n = v.(*atomic.Int64).Load()
		}
		if n != 1 {
			t.Errorf("fault class %q injected %d times, want exactly once", fault, n)
		}
	}
}

// TestDistributedChaosBitIdentity is the tentpole acceptance test: with a
// chaos proxy injecting every fault class between the coordinator and its
// only worker, the merged report must stay byte-identical to the
// single-process run — for both null models — because every failed or
// corrupted range is retried or mined locally through the identical code
// path, and every accepted partial was validated first.
func TestDistributedChaosBitIdentity(t *testing.T) {
	d := goldenDataset(t)
	live := startWorkers(t, 1)

	nulls := []struct {
		name string
		cfg  func() *sigfim.Config
	}{
		{"independence", func() *sigfim.Config {
			return &sigfim.Config{Delta: 120, Seed: 9, WithBaseline: true}
		}},
		{"swap", func() *sigfim.Config {
			return &sigfim.Config{Delta: 60, Seed: 9, SwapNull: true}
		}},
	}
	for _, null := range nulls {
		t.Run(null.name, func(t *testing.T) {
			local, err := d.Significant(2, null.cfg())
			if err != nil {
				t.Fatal(err)
			}
			localJSON := mustJSON(t, local)

			chaos, injected := chaosWorker(t, live[0])
			cfg := null.cfg()
			cfg.RemotePool = chaosPool(t, chaos)
			dist, err := d.Significant(2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, dist); !reflect.DeepEqual(got, localJSON) {
				t.Fatalf("chaos report differs from single-process report\nlocal: %s\ndist:  %s", localJSON, got)
			}
			assertChaosCoverage(t, injected)
		})
	}
}

// TestDistributedChaosFindSMin pins the smin path under the same fault
// schedule.
func TestDistributedChaosFindSMin(t *testing.T) {
	d := goldenDataset(t)
	live := startWorkers(t, 1)
	localS, err := d.FindSMin(2, &sigfim.Config{Delta: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	chaos, injected := chaosWorker(t, live[0])
	gotS, err := d.FindSMin(2, &sigfim.Config{
		Delta: 120, Seed: 9,
		RemotePool: chaosPool(t, chaos),
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotS != localS {
		t.Fatalf("chaos s_min = %d, single-process = %d", gotS, localS)
	}
	assertChaosCoverage(t, injected)
}

// hungWorker accepts connections and never answers /v1/partials — the
// classic stalled-worker failure the per-range deadline exists for.
func hungWorker(t *testing.T) string {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		// Drain the body so the server notices the client abandoning the
		// request and cancels r.Context() — otherwise these handlers leak
		// until the test binary exits and Server.Close hangs.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestHungWorkerCannotStallJob is the acceptance criterion for the deadline:
// with a hung worker in the pool and a short per-range timeout, the job must
// finish promptly (every range that lands on the hung worker times out, is
// retried on the live one, and the hung worker is ejected after EjectAfter
// consecutive timeouts) with a byte-identical report.
func TestHungWorkerCannotStallJob(t *testing.T) {
	d := goldenDataset(t)
	local, err := d.Significant(2, &sigfim.Config{Delta: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	localJSON := mustJSON(t, local)

	hung := hungWorker(t)
	live := startWorkers(t, 1)
	pool := sigfim.NewWorkerPool([]string{hung, live[0]}, sigfim.WorkerPoolOptions{
		Timeout:    300 * time.Millisecond,
		EjectAfter: 2,
		RangeSize:  10,
	})
	defer pool.Close()

	start := time.Now()
	dist, err := d.Significant(2, &sigfim.Config{Delta: 120, Seed: 9, RemotePool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("job took %v with a hung worker; the per-range deadline is not bounding stalls", elapsed)
	}
	if got := mustJSON(t, dist); !reflect.DeepEqual(got, localJSON) {
		t.Fatal("report with hung worker differs from single-process report")
	}

	st := pool.Snapshot()
	var hungStatus, liveStatus *sigfim.WorkerStatus
	for i := range st.Workers {
		switch st.Workers[i].URL {
		case hung:
			hungStatus = &st.Workers[i]
		case live[0]:
			liveStatus = &st.Workers[i]
		}
	}
	if hungStatus == nil || liveStatus == nil {
		t.Fatalf("snapshot missing workers: %+v", st.Workers)
	}
	if hungStatus.Failures < 2 || hungStatus.Ejections < 1 {
		t.Fatalf("hung worker was not ejected: %+v", hungStatus)
	}
	if liveStatus.Successes == 0 {
		t.Fatalf("live worker served nothing: %+v", liveStatus)
	}
}

// TestHedgedDispatch: with hedging enabled, a range stalled on the hung
// worker is re-dispatched to the live one after the hedge delay and the
// first valid partial wins — the job finishes fast and byte-identical, and
// the pool records the hedges.
func TestHedgedDispatch(t *testing.T) {
	d := goldenDataset(t)
	local, err := d.Significant(2, &sigfim.Config{Delta: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	localJSON := mustJSON(t, local)

	hung := hungWorker(t)
	live := startWorkers(t, 1)
	pool := sigfim.NewWorkerPool([]string{hung, live[0]}, sigfim.WorkerPoolOptions{
		Timeout:    10 * time.Second, // deadline alone would be slow; hedging wins first
		EjectAfter: 1000,             // keep the hung worker in rotation so hedges keep firing
		RangeSize:  10,
		HedgeDelay: 50 * time.Millisecond,
	})
	defer pool.Close()

	dist, err := d.Significant(2, &sigfim.Config{Delta: 120, Seed: 9, RemotePool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, dist); !reflect.DeepEqual(got, localJSON) {
		t.Fatal("hedged report differs from single-process report")
	}
	if st := pool.Snapshot(); st.Hedges == 0 {
		t.Fatalf("no hedged dispatches recorded: %+v", st)
	}
}
