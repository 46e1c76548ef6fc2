package sigfim

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// White-box supervisor tests: state transitions, the probe backoff schedule,
// and failure classification are exercised against a fake clock and a
// stubbed probe, so nothing here sleeps on real time or opens a socket.

// fakeClock is a race-safe manual clock for WorkerPoolOptions.now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// waitFor polls cond until it holds or the deadline expires. Probe outcomes
// are applied by pool goroutines, so tests observe them with a poll instead
// of a sleep.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// state reads one worker's supervision state.
func (p *WorkerPool) state(url string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w := p.findLocked(url); w != nil {
		return w.state
	}
	return ""
}

func TestWorkerPoolEjectionAfterConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	p := NewWorkerPool([]string{"http://a", "http://b"}, WorkerPoolOptions{
		ejectAfter: 3,
		now:        clk.now,
		probe:      func(ctx context.Context, base string) error { return errors.New("down") },
	})
	defer p.Close()

	hard := errors.New("connection refused")
	p.reportFailure("http://a", hard)
	if got := p.state("http://a"); got != WorkerSuspect {
		t.Fatalf("after 1 failure: state %q, want suspect", got)
	}
	// A suspect worker is still eligible, but ordered after healthy ones.
	if got := p.pick(2); len(got) != 2 || got[0] != "http://b" || got[1] != "http://a" {
		t.Fatalf("pick with one suspect = %v, want healthy b before suspect a", got)
	}

	p.reportFailure("http://a", hard)
	p.reportFailure("http://a", hard)
	if got := p.state("http://a"); got != WorkerEjected {
		t.Fatalf("after 3 consecutive failures: state %q, want ejected", got)
	}
	if got := p.pick(2); len(got) != 1 || got[0] != "http://b" {
		t.Fatalf("pick with a ejected = %v, want [http://b]", got)
	}

	st := p.Snapshot()
	if st.Workers[0].Ejections != 1 || st.Workers[0].Failures != 3 {
		t.Fatalf("snapshot = %+v, want 1 ejection and 3 failures for a", st.Workers[0])
	}
}

func TestWorkerPoolSuccessResetsStreak(t *testing.T) {
	clk := newFakeClock()
	p := NewWorkerPool([]string{"http://a"}, WorkerPoolOptions{ejectAfter: 3, now: clk.now})
	defer p.Close()

	hard := errors.New("timeout")
	p.reportFailure("http://a", hard)
	p.reportFailure("http://a", hard)
	p.reportSuccess("http://a", 40*time.Millisecond, 10)
	if got := p.state("http://a"); got != WorkerHealthy {
		t.Fatalf("after success: state %q, want healthy", got)
	}
	// The streak restarted: two more failures must not eject.
	p.reportFailure("http://a", hard)
	p.reportFailure("http://a", hard)
	if got := p.state("http://a"); got != WorkerSuspect {
		t.Fatalf("2 failures after a success: state %q, want suspect (streak reset)", got)
	}
}

// TestWorkerPoolSheddingClassification: a 503/429 backs the worker off for
// its Retry-After window without advancing the failure streak — the breaker
// must never trip on load shedding.
func TestWorkerPoolSheddingClassification(t *testing.T) {
	clk := newFakeClock()
	p := NewWorkerPool([]string{"http://a"}, WorkerPoolOptions{ejectAfter: 1, now: clk.now})
	defer p.Close()

	for i := 0; i < 5; i++ {
		p.reportFailure("http://a", &workerHTTPError{
			url: "http://a", status: http.StatusServiceUnavailable, retryAfter: 10 * time.Second,
		})
	}
	if got := p.state("http://a"); got != WorkerHealthy {
		t.Fatalf("after 5 shed responses with ejectAfter=1: state %q, want healthy", got)
	}
	// Backed off: ineligible until the Retry-After window passes.
	if got := p.pick(1); len(got) != 0 {
		t.Fatalf("pick during backoff window = %v, want none", got)
	}
	clk.advance(11 * time.Second)
	if got := p.pick(1); len(got) != 1 {
		t.Fatalf("pick after backoff window = %v, want [http://a]", got)
	}
	st := p.Snapshot()
	if st.Workers[0].Backoffs != 5 || st.Workers[0].Failures != 0 {
		t.Fatalf("snapshot = %+v, want 5 backoffs and 0 failures", st.Workers[0])
	}

	// A shed response without a Retry-After backs off for shedWindow.
	p.reportFailure("http://a", &workerHTTPError{url: "http://a", status: http.StatusTooManyRequests})
	if got := p.pick(1); len(got) != 0 {
		t.Fatalf("pick during the default shed window = %v, want none", got)
	}
	clk.advance(shedWindow)
	if got := p.pick(1); len(got) != 1 {
		t.Fatalf("pick after the default shed window = %v, want [http://a]", got)
	}

	// A plain 500 is a hard failure and (ejectAfter=1) ejects immediately.
	p.reportFailure("http://a", &workerHTTPError{url: "http://a", status: http.StatusInternalServerError})
	if got := p.state("http://a"); got != WorkerEjected {
		t.Fatalf("after a 500 with ejectAfter=1: state %q, want ejected", got)
	}
}

// TestWorkerPoolReadmission: an ejected worker whose probe succeeds returns
// to service with a clean slate.
func TestWorkerPoolReadmission(t *testing.T) {
	clk := newFakeClock()
	var probeOK sync.Map // url -> bool
	p := NewWorkerPool([]string{"http://a", "http://b"}, WorkerPoolOptions{
		ejectAfter: 1,
		now:        clk.now,
		probe: func(ctx context.Context, base string) error {
			if ok, _ := probeOK.Load(base); ok == true {
				return nil
			}
			return errors.New("still down")
		},
	})
	defer p.Close()

	p.reportFailure("http://a", errors.New("connect: refused"))
	if got := p.state("http://a"); got != WorkerEjected {
		t.Fatalf("state %q, want ejected", got)
	}

	// Until the worker recovers, probes fail and it stays ejected.
	clk.advance(time.Minute)
	p.probeDue()
	waitFor(t, "failed probe applied", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return !p.workers[0].probing && p.workers[0].probeBackoff > 2*time.Second
	})
	if got := p.state("http://a"); got != WorkerEjected {
		t.Fatalf("after failed probe: state %q, want ejected", got)
	}

	// The worker comes back; the next due probe re-admits it.
	probeOK.Store("http://a", true)
	clk.advance(time.Minute)
	p.probeDue()
	waitFor(t, "re-admission", func() bool { return p.state("http://a") == WorkerHealthy })

	st := p.Snapshot()
	if st.Workers[0].Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", st.Workers[0].Readmissions)
	}
	if got := p.pick(2); len(got) != 2 {
		t.Fatalf("pick after re-admission = %v, want both workers", got)
	}
}

// TestWorkerPoolProbeBackoffSchedule: an ejected worker is first probed
// after firstProbeDelay, failed probes double the delay up to
// maxProbeDelay, and every scheduled delay is jittered within ±25% of the
// nominal backoff. The fake clock walks the whole 2 s → 60 s schedule.
func TestWorkerPoolProbeBackoffSchedule(t *testing.T) {
	clk := newFakeClock()
	p := NewWorkerPool([]string{"http://a"}, WorkerPoolOptions{
		ejectAfter: 1,
		now:        clk.now,
		probe:      func(ctx context.Context, base string) error { return errors.New("down") },
	})
	defer p.Close()

	checkDelay := func(round int, from time.Time, want time.Duration) {
		t.Helper()
		p.mu.Lock()
		next := p.workers[0].nextProbeAt
		p.mu.Unlock()
		if delay := next.Sub(from); delay < time.Duration(float64(want)*0.75) || delay > time.Duration(float64(want)*1.25) {
			t.Fatalf("round %d: next probe in %v, want within ±25%% of %v", round, delay, want)
		}
	}
	p.reportFailure("http://a", errors.New("boom"))
	checkDelay(0, clk.now(), firstProbeDelay)
	wantBackoffs := []time.Duration{4 * time.Second, 8 * time.Second, 16 * time.Second,
		32 * time.Second, maxProbeDelay, maxProbeDelay}
	for round, want := range wantBackoffs {
		clk.advance(2 * time.Minute) // past any jittered nextProbeAt
		at := clk.now()
		p.probeDue()
		waitFor(t, fmt.Sprintf("probe round %d", round+1), func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return !p.workers[0].probing && p.workers[0].probeBackoff == want
		})
		checkDelay(round+1, at, want)
	}
}

// TestWorkerPoolPickRotation: the cursor round-robins the starting worker so
// load spreads across healthy workers.
func TestWorkerPoolPickRotation(t *testing.T) {
	clk := newFakeClock()
	p := NewWorkerPool([]string{"http://a", "http://b"}, WorkerPoolOptions{now: clk.now})
	defer p.Close()

	first := p.pick(2)
	second := p.pick(2)
	if first[0] == second[0] {
		t.Fatalf("consecutive picks started at the same worker: %v then %v", first, second)
	}
}

func TestWorkerPoolURLNormalization(t *testing.T) {
	clk := newFakeClock()
	p := NewWorkerPool(
		[]string{" http://a/ ", "http://a", "", "http://b"},
		WorkerPoolOptions{now: clk.now},
	)
	defer p.Close()
	if n := p.size(); n != 2 {
		t.Fatalf("pool size = %d, want 2 (dedup + trim)", n)
	}
}

func TestWorkerPoolCloseIdempotent(t *testing.T) {
	p := NewWorkerPool([]string{"http://a"}, WorkerPoolOptions{})
	p.Close()
	p.Close() // must not panic or deadlock
}
