package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sigfim"
)

// nonFlusher is a ResponseWriter that does not implement http.Flusher.
type nonFlusher struct{ http.ResponseWriter }

// TestStatusRecorderFlush asserts the logging wrapper forwards Flush to the
// underlying writer (httptest.ResponseRecorder implements http.Flusher and
// records the call) and is a safe no-op when the underlying writer cannot
// flush. Without the forward, wrapping a handler in logged would hide the
// Flusher and silently buffer SSE streams.
func TestStatusRecorderFlush(t *testing.T) {
	rr := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: rr, status: http.StatusOK}
	var _ http.Flusher = rec // the wrapper itself must satisfy Flusher
	rec.Flush()
	if !rr.Flushed {
		t.Fatal("Flush did not reach the underlying ResponseWriter")
	}

	plain := &statusRecorder{ResponseWriter: nonFlusher{httptest.NewRecorder()}}
	plain.Flush() // must not panic

	if rec.Unwrap() != http.ResponseWriter(rr) {
		t.Fatal("Unwrap does not expose the underlying writer")
	}
}

// TestSubscriptionCoalescing pins the mailbox contract: state frames queue
// in order and are never dropped, progress frames collapse into a single
// latest-wins slot.
func TestSubscriptionCoalescing(t *testing.T) {
	sub := &subscription{notify: make(chan struct{}, 1)}

	progress := func(done int) JobEvent {
		return JobEvent{Type: EventProgress, Status: JobStatus{Progress: Progress{Done: done, Total: 100}}}
	}
	state := func(s JobState) JobEvent {
		return JobEvent{Type: EventState, Status: JobStatus{State: s}}
	}

	for i := 1; i <= 50; i++ {
		sub.push(progress(i))
	}
	sub.push(state(StateRunning))
	sub.push(state(StateDone))

	if ev, ok := sub.takeProgress(); !ok || ev.Status.Progress.Done != 50 {
		t.Fatalf("takeProgress = %+v, %v; want latest (done=50)", ev, ok)
	}
	if _, ok := sub.takeProgress(); ok {
		t.Fatal("second takeProgress returned a frame; the slot must drain")
	}

	states := sub.takeStates()
	if len(states) != 2 || states[0].Status.State != StateRunning || states[1].Status.State != StateDone {
		t.Fatalf("takeStates = %+v; want [running done] in order", states)
	}
	if got := sub.takeStates(); len(got) != 0 {
		t.Fatalf("second takeStates returned %d frames", len(got))
	}

	select {
	case <-sub.notify:
	default:
		t.Fatal("push left no pending wake-up")
	}
}

// TestEventBusFanout covers subscribe/publish/unsubscribe and the
// hasSubscribers fast path the per-replicate progress hook relies on.
func TestEventBusFanout(t *testing.T) {
	bus := newEventBus()
	if bus.hasSubscribers("j1") {
		t.Fatal("fresh bus claims subscribers")
	}
	bus.publish("j1", JobEvent{Type: EventState}) // no subscribers: must not panic

	a := bus.subscribe("j1")
	b := bus.subscribe("j1")
	other := bus.subscribe("j2")
	if !bus.hasSubscribers("j1") || !bus.hasSubscribers("j2") {
		t.Fatal("hasSubscribers misses registered watchers")
	}

	bus.publish("j1", JobEvent{Type: EventState, Status: JobStatus{State: StateRunning}})
	for _, sub := range []*subscription{a, b} {
		if got := sub.takeStates(); len(got) != 1 || got[0].Status.State != StateRunning {
			t.Fatalf("subscriber got %+v, want one running frame", got)
		}
	}
	if got := other.takeStates(); len(got) != 0 {
		t.Fatalf("j2 watcher received j1 events: %+v", got)
	}

	bus.unsubscribe("j1", a)
	bus.unsubscribe("j1", b)
	if bus.hasSubscribers("j1") {
		t.Fatal("unsubscribe left phantom watchers")
	}
	bus.publish("j1", JobEvent{Type: EventProgress})
	if _, ok := a.takeProgress(); ok {
		t.Fatal("publish reached an unsubscribed watcher")
	}
}

// TestHistogramRender pins the Prometheus exposition of the duration
// histogram: cumulative buckets, a +Inf bucket equal to the count, and a sum
// in seconds. The finished counts come from the tally, which also counts
// the jobs the histogram does not observe (a cache hit, a failed run).
func TestHistogramRender(t *testing.T) {
	m := NewMetrics()
	m.duration(KindSMin).observe(30 * time.Millisecond)
	m.duration(KindSMin).observe(70 * time.Millisecond)
	m.duration(KindSMin).observe(2 * time.Second)
	tally := jobTally{{KindSMin, StateDone}: 4, {KindSMin, StateFailed}: 1}

	var sb strings.Builder
	m.WritePrometheus(&sb, metricsSnapshot{tally: tally})
	out := sb.String()

	for _, want := range []string{
		`sigfimd_jobs_finished_total{kind="smin",state="done"} 4`,
		`sigfimd_jobs_finished_total{kind="smin",state="failed"} 1`,
		`sigfimd_job_duration_seconds_bucket{kind="smin",le="0.025"} 0`,
		`sigfimd_job_duration_seconds_bucket{kind="smin",le="0.05"} 1`,
		`sigfimd_job_duration_seconds_bucket{kind="smin",le="0.1"} 2`,
		`sigfimd_job_duration_seconds_bucket{kind="smin",le="2.5"} 3`,
		`sigfimd_job_duration_seconds_bucket{kind="smin",le="+Inf"} 3`,
		`sigfimd_job_duration_seconds_sum{kind="smin"} 2.1`,
		`sigfimd_job_duration_seconds_count{kind="smin"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q\n%s", want, out)
		}
	}
}

// TestHistogramBucketEdges asserts le-bucket semantics: an observation equal
// to a boundary lands in that bucket (le is <=), and observations beyond the
// largest boundary land only in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	m := NewMetrics()
	m.duration("x").observe(10 * time.Millisecond) // exactly le="0.01"
	m.duration("x").observe(301 * time.Second)     // beyond 300: +Inf only

	var sb strings.Builder
	m.WritePrometheus(&sb, metricsSnapshot{tally: jobTally{{"x", StateDone}: 2}})
	out := sb.String()
	for _, want := range []string{
		`sigfimd_job_duration_seconds_bucket{kind="x",le="0.01"} 1`,
		`sigfimd_job_duration_seconds_bucket{kind="x",le="300"} 1`,
		`sigfimd_job_duration_seconds_bucket{kind="x",le="+Inf"} 2`,
		`sigfimd_job_duration_seconds_count{kind="x"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q\n%s", want, out)
		}
	}
}

// awaitState follows job id's event stream until it reaches want, failing
// if it ends in another terminal state first.
func awaitState(t *testing.T, e *Engine, id string, want JobState) {
	t.Helper()
	st, sub, stop, err := e.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for st.State != want {
		if st.State.Terminal() {
			t.Fatalf("job %s ended %s (error %q), want %s", id, st.State, st.Error, want)
		}
		<-sub.notify
		for _, ev := range sub.takeStates() {
			if st = ev.Status; st.State == want || st.State.Terminal() {
				break
			}
		}
	}
}

// TestJobCountersAgree drives every way a job ends — computed done, cache
// hit, canceled while queued, canceled while running, drained by Shutdown
// — and a queue-full refusal, and after each step checks that Counters(),
// the /metrics job lines and a recount of List() agree. Jobs wait on their
// event streams, never on the clock.
func TestJobCountersAgree(t *testing.T) {
	srv := New(Options{Workers: 1, QueueCap: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if _, err := srv.Registry().RegisterFile("golden", "../../testdata/golden_input.dat"); err != nil {
		t.Fatal(err)
	}
	e := srv.Engine()
	quick := JobRequest{Dataset: "golden", Kind: KindSMin, K: 2, Config: &sigfim.Config{Delta: 20, Seed: 1}}
	// A maxDelta smin job runs until it is canceled.
	long := func(seed uint64) JobRequest {
		return JobRequest{Dataset: "golden", Kind: KindSMin, K: 2, Config: &sigfim.Config{Delta: 1 << 20, Seed: seed}}
	}
	submit := func(req JobRequest) JobStatus {
		t.Helper()
		st, err := e.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cancel := func(id string) {
		t.Helper()
		if _, err := e.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}

	check := func(step string) {
		t.Helper()
		var want EngineCounters
		wantLines := map[string]int64{}
		computed := int64(0)
		for _, st := range e.List() {
			want.Submitted++
			switch st.State {
			case StateQueued:
				want.Queued++
			case StateRunning:
				want.InFlight++
			case StateDone:
				want.Completed++
			case StateFailed:
				want.Failed++
			case StateCanceled:
				want.Canceled++
			}
			if st.CacheHit {
				want.CacheHits++
			} else if st.State == StateDone {
				computed++
			}
			if st.State.Terminal() {
				wantLines[fmt.Sprintf("sigfimd_jobs_finished_total{kind=%q,state=%q}", st.Kind, st.State)]++
			}
		}
		wantLines["sigfimd_jobs_submitted_total"] = want.Submitted
		wantLines["sigfimd_jobs_queued"] = want.Queued
		wantLines["sigfimd_jobs_in_flight"] = want.InFlight
		wantLines["sigfimd_cache_hits_total"] = want.CacheHits
		wantLines["sigfimd_job_duration_seconds_count"] = computed
		if got := e.Counters(); got != want {
			t.Errorf("%s: Counters() = %+v, List() recounts %+v", step, got, want)
		}

		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		got := map[string]int64{}
		for _, line := range strings.Split(rr.Body.String(), "\n") {
			name, v, _ := strings.Cut(line, " ")
			if strings.HasPrefix(name, "sigfimd_job_duration_seconds_count") {
				name = "sigfimd_job_duration_seconds_count" // summed over kinds
			} else if !strings.HasPrefix(name, "sigfimd_jobs_") && name != "sigfimd_cache_hits_total" {
				continue
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: metric line %q: %v", step, line, err)
			}
			got[name] += n
		}
		zero := func(_ string, n int64) bool { return n == 0 }
		maps.DeleteFunc(got, zero)
		maps.DeleteFunc(wantLines, zero)
		if !maps.Equal(got, wantLines) {
			t.Errorf("%s: /metrics job lines %v, List() recounts %v", step, got, wantLines)
		}
	}

	done := submit(quick)
	awaitState(t, e, done.ID, StateDone)
	check("computed done")

	if st := submit(quick); !st.CacheHit || st.State != StateDone {
		t.Fatalf("resubmit: cache hit %v, state %s; want a done cache hit", st.CacheHit, st.State)
	}
	check("cache hit")

	running := submit(long(1))
	awaitState(t, e, running.ID, StateRunning)
	queued := submit(long(2))
	body, _ := json.Marshal(long(3))
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit to a full queue: status %d, want 503", rr.Code)
	}
	check("queue full")

	cancel(queued.ID)
	check("canceled while queued")

	cancel(running.ID)
	awaitState(t, e, running.ID, StateCanceled)
	check("canceled while running")

	running = submit(long(4))
	awaitState(t, e, running.ID, StateRunning)
	queued = submit(long(5))
	ctx, stop := context.WithCancel(context.Background())
	stop() // running jobs are canceled at once
	if err := srv.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st, _ := e.Get(id); st.State != StateCanceled {
			t.Errorf("after Shutdown job %s is %s, want canceled", id, st.State)
		}
	}
	check("drained by Shutdown")
}
