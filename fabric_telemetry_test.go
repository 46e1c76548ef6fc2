package sigfim

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sigfim/internal/montecarlo"
)

// White-box tests for the fabric's latency telemetry: the per-worker range
// histogram and autotuning EWMA, and the hedging paths that feed them.

// telemetryRequest is hardeningRequest in montecarlo form, for runRemote.
func telemetryRequest() montecarlo.RangeRequest {
	return montecarlo.RangeRequest{
		Range: montecarlo.ReplicateRange{From: 5, To: 10},
		K:     2, Floor: 3, Seeds: []uint64{1, 2, 3, 4, 5},
	}
}

// stallServer answers /healthz and hangs every other request until the
// client abandons it.
func stallServer(t *testing.T) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hs.Close)
	return hs
}

// workerStatus pulls one worker's snapshot out of the pool by URL.
func workerStatus(t *testing.T, pool *WorkerPool, url string) WorkerStatus {
	t.Helper()
	st := pool.Snapshot()
	for _, w := range st.Workers {
		if w.URL == url {
			return w
		}
	}
	t.Fatalf("worker %s missing from snapshot %+v", url, st.Workers)
	return WorkerStatus{}
}

func TestRangeLatencyTelemetry(t *testing.T) {
	pool := NewWorkerPool([]string{"http://a"}, WorkerPoolOptions{})
	defer pool.Close()

	pool.reportSuccess("http://a", 40*time.Millisecond, 10) // 0.004 s/replicate
	pool.reportSuccess("http://a", 80*time.Millisecond, 10) // 0.008 s/replicate
	rl := workerStatus(t, pool, "http://a").RangeLatency
	if rl == nil {
		t.Fatal("no RangeLatency after two successes")
	}
	if rl.Count != 2 {
		t.Fatalf("Count = %d, want 2", rl.Count)
	}
	// EWMA seeds on the first observation, then smooths: 0.7*0.004 + 0.3*0.008.
	if want := 0.0052; math.Abs(rl.EWMAReplicateSeconds-want) > 1e-12 {
		t.Fatalf("EWMA = %v, want %v", rl.EWMAReplicateSeconds, want)
	}
	if len(rl.Buckets) != len(RangeLatencyBuckets)+1 {
		t.Fatalf("bucket count = %d, want %d", len(rl.Buckets), len(RangeLatencyBuckets)+1)
	}
	// 0.04s lands in the le=0.05 bucket, 0.08s in le=0.1.
	if rl.Buckets[2] != 1 || rl.Buckets[3] != 1 {
		t.Fatalf("bucket layout wrong: %v", rl.Buckets)
	}

	// A hedge loss is censored: histogram yes, EWMA no.
	pool.noteHedgeLoss("http://a", 70*time.Millisecond)
	rl = workerStatus(t, pool, "http://a").RangeLatency
	if rl.Count != 3 || rl.Buckets[3] != 2 {
		t.Fatalf("hedge loss not in histogram: count=%d buckets=%v", rl.Count, rl.Buckets)
	}
	if want := 0.0052; math.Abs(rl.EWMAReplicateSeconds-want) > 1e-12 {
		t.Fatalf("hedge loss moved the EWMA: %v, want %v", rl.EWMAReplicateSeconds, want)
	}
	if want := 0.04 + 0.08 + 0.07; math.Abs(rl.SumSeconds-want) > 1e-9 {
		t.Fatalf("SumSeconds = %v, want %v", rl.SumSeconds, want)
	}
}

func TestAutotuneRangeSize(t *testing.T) {
	pool := NewWorkerPool([]string{"http://a", "http://b"}, WorkerPoolOptions{})
	defer pool.Close()

	if got := pool.autotuneRangeSize(1000, 0); got != 0 {
		t.Fatalf("no observations: autotune = %d, want 0 (no opinion)", got)
	}

	// 8 replicates in 2s = 0.25 s/replicate (exact in binary): the 2s default
	// target asks for 8-replicate ranges.
	pool.reportSuccess("http://a", 2*time.Second, 8)
	if got := pool.autotuneRangeSize(1000, 0); got != 8 {
		t.Fatalf("autotune = %d, want 8", got)
	}
	// Upper clamp: delta/workers keeps every worker busy.
	if got := pool.autotuneRangeSize(10, 0); got != 5 {
		t.Fatalf("autotune(delta=10) = %d, want 5 (delta/workers)", got)
	}
	// Lower clamp: a target below one replicate's latency still ships work.
	if got := pool.autotuneRangeSize(1000, time.Millisecond); got != 1 {
		t.Fatalf("autotune(target=1ms) = %d, want 1", got)
	}

	// The slowest worker sets the pace: b at 1 s/replicate drags the size to 2.
	pool.reportSuccess("http://b", 8*time.Second, 8)
	if got := pool.autotuneRangeSize(1000, 0); got != 2 {
		t.Fatalf("autotune with slow worker = %d, want 2", got)
	}

	// An ejected worker no longer constrains sizing.
	for i := 0; i < 3; i++ {
		pool.reportFailure("http://b", errors.New("boom"))
	}
	if st := workerStatus(t, pool, "http://b"); st.State != WorkerEjected {
		t.Fatalf("worker b not ejected: %+v", st)
	}
	if got := pool.autotuneRangeSize(1000, 0); got != 8 {
		t.Fatalf("autotune after ejection = %d, want 8", got)
	}

	if got := pool.autotuneRangeSize(0, 0); got != 0 {
		t.Fatalf("autotune(delta=0) = %d, want 0", got)
	}
}

// TestHedgeLossLatencyRecorded: when a hedged duplicate wins the race, the
// canceled loser's latency must still land in its worker's histogram (as a
// censored observation) while the winner feeds both histogram and EWMA.
func TestHedgeLossLatencyRecorded(t *testing.T) {
	hung := stallServer(t)
	live := partialEcho(t, func(rp *RangePartial) any { return rp })
	defer live.Close()

	pool := NewWorkerPool([]string{hung.URL, live.URL}, WorkerPoolOptions{ejectAfter: 1000})
	defer pool.Close()
	f := &remoteFabric{pool: pool, hc: pool.client(), retries: 2, hedgeDelay: 20 * time.Millisecond}

	var p montecarlo.Partial
	err := f.runRemote(context.Background(), telemetryRequest(), hardeningRequest(),
		[]string{hung.URL, live.URL}, &p)
	if err != nil || p.To != hardeningRequest().To {
		t.Fatalf("runRemote: p=%+v err=%v", p, err)
	}

	if st := pool.Snapshot(); st.Hedges != 1 {
		t.Fatalf("Hedges = %d, want 1", st.Hedges)
	}
	ls := workerStatus(t, pool, live.URL)
	if ls.Successes != 1 || ls.RangeLatency == nil || ls.RangeLatency.EWMAReplicateSeconds == 0 {
		t.Fatalf("winner telemetry missing: %+v", ls)
	}

	// The loser drains on a detached goroutine after the winner returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hs := workerStatus(t, pool, hung.URL)
		if rl := hs.RangeLatency; rl != nil && rl.Count >= 1 {
			if rl.EWMAReplicateSeconds != 0 {
				t.Fatalf("censored hedge loss moved the EWMA: %+v", rl)
			}
			if hs.Failures != 0 {
				t.Fatalf("hedge loss counted as failure: %+v", hs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hedge-loser latency never recorded: %+v", hs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHedgeNotDoubleCounted: a hedged attempt that itself fails and is
// retried on a third worker must count exactly one hedge — the retry is a
// plain sequential attempt, not a second hedge.
func TestHedgeNotDoubleCounted(t *testing.T) {
	hung := stallServer(t)
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	live := partialEcho(t, func(rp *RangePartial) any { return rp })
	defer live.Close()

	pool := NewWorkerPool([]string{hung.URL, failing.URL, live.URL}, WorkerPoolOptions{ejectAfter: 1000})
	defer pool.Close()
	f := &remoteFabric{pool: pool, hc: pool.client(), retries: 3, hedgeDelay: 20 * time.Millisecond}

	// Attempt 1 hangs, the hedge fires attempt 2 (the failing worker), its
	// failure launches attempt 3 sequentially, which wins.
	var p montecarlo.Partial
	err := f.runRemote(context.Background(), telemetryRequest(), hardeningRequest(),
		[]string{hung.URL, failing.URL, live.URL}, &p)
	if err != nil || p.To != hardeningRequest().To {
		t.Fatalf("runRemote: p=%+v err=%v", p, err)
	}

	st := pool.Snapshot()
	if st.Hedges != 1 {
		t.Fatalf("Hedges = %d, want exactly 1 (retry of a failed hedge is not a new hedge)", st.Hedges)
	}
	if fs := workerStatus(t, pool, failing.URL); fs.Failures != 1 || fs.Hedged != 1 {
		t.Fatalf("failing worker: %+v, want 1 failure and 1 hedged dispatch", fs)
	}
	if ls := workerStatus(t, pool, live.URL); ls.Successes != 1 || ls.Hedged != 0 {
		t.Fatalf("live worker: %+v, want 1 success and 0 hedged dispatches", ls)
	}
}
