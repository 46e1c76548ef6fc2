package sigfim_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sigfim"
	"sigfim/internal/service"
	"sigfim/internal/trace"
)

// Distributed-tracing and autotuning acceptance tests, reusing the worker
// helpers from distributed_determinism_test.go.

// spanAttr returns the value of an attribute on a span ("" if absent).
func spanAttr(sp trace.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestAutotunedRangeSizeBitIdentity closes the observability loop: a pool
// sizes ranges from its observed per-worker EWMA (after a first run has
// seeded it), and the autotuned sizing must stay byte-identical to the
// single-process run at every coordinator worker count and range target
// (set through a test seam). Each pool is shared across its runs exactly as a
// sigfimd coordinator shares it across jobs.
func TestAutotunedRangeSizeBitIdentity(t *testing.T) {
	d := goldenDataset(t)
	workers := startWorkers(t, 2)

	local, err := d.Significant(2, &sigfim.Config{Delta: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	localJSON := mustJSON(t, local)

	// Vary the per-range target so different sizes are exercised; none may
	// change a byte.
	for _, run := range []struct {
		workers int
		target  time.Duration
	}{
		{1, 0},
		{4, 10 * time.Millisecond},
		{8, 10 * time.Second},
	} {
		pool := testPool(t, workers, sigfim.AimRangesAt(sigfim.WorkerPoolOptions{}, run.target))
		cfg := &sigfim.Config{Delta: 120, Seed: 9, Workers: run.workers, RemotePool: pool}

		// First run: no latency observed yet, so the static heuristic sizes
		// the ranges — and the run seeds every worker's EWMA.
		dist, err := d.Significant(2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, dist); !reflect.DeepEqual(got, localJSON) {
			t.Fatalf("workers=%d target=%v: heuristic-sized run differs from single-process report",
				run.workers, run.target)
		}
		size := pool.AutotuneRangeSize(120, run.target)
		if size < 1 || size > 60 {
			t.Fatalf("target=%v: autotuned size after a seeding run = %d, want within [1, 60]", run.target, size)
		}

		// The second run actually uses the EWMA-derived size.
		dist, err = d.Significant(2, cfg)
		if err != nil {
			t.Fatalf("workers=%d target=%v: %v", run.workers, run.target, err)
		}
		if got := mustJSON(t, dist); !reflect.DeepEqual(got, localJSON) {
			t.Fatalf("workers=%d target=%v: autotuned report differs from single-process report",
				run.workers, run.target)
		}
	}
}

// TestDistributedJobTrace runs a coordinator sigfimd with one dead and one
// live worker and asserts the job's trace attributes the fabric work: at
// least one attempt span per surviving worker, and the dead worker's failed
// attempts surfaced as retry/error/local-fallback outcomes.
func TestDistributedJobTrace(t *testing.T) {
	live := startWorkers(t, 1)
	dead := deadWorker(t)

	srv := service.New(service.Options{
		Logger:        discardLogger(),
		RemoteWorkers: []string{dead, live[0]},
	})
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

	tr, ok := srv.Engine().Trace(st.ID)
	if !ok {
		t.Fatalf("no trace retained for job %s", st.ID)
	}
	if tr.JobID != st.ID {
		t.Fatalf("trace JobID = %q, want %q", tr.JobID, st.ID)
	}
	var liveAttempts, ranges int
	var deadDegraded bool
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "fabric.range":
			ranges++
		case "fabric.attempt":
			switch spanAttr(sp, "worker") {
			case live[0]:
				liveAttempts++
			case dead:
				if o := spanAttr(sp, "outcome"); o == "retry" || o == "error" {
					deadDegraded = true
				}
			}
		case "fabric.local":
			deadDegraded = true
		}
	}
	if ranges == 0 {
		t.Fatal("trace has no fabric.range spans for a distributed job")
	}
	if liveAttempts == 0 {
		t.Fatalf("trace has no attempt spans for the surviving worker %s", live[0])
	}
	if !deadDegraded {
		t.Fatal("trace shows no retry/error/local-fallback evidence of the dead worker")
	}
}
