package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestStartEndNesting(t *testing.T) {
	rec := NewRecorder("j1")
	ctx := NewContext(context.Background(), rec)

	ctx, root := Start(ctx, "job", String("kind", "smin"))
	cctx, child := Start(ctx, "phase")
	_, grand := Start(cctx, "range", Int("from", 0))
	grand.End(String("outcome", "ok"))
	child.End()
	root.End()

	tr := rec.Snapshot()
	if tr.TraceID == "" || tr.JobID != "j1" {
		t.Fatalf("trace identity = %q/%q", tr.TraceID, tr.JobID)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	// Snapshot orders by start: job, phase, range.
	byName := map[string]Span{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	if got := []string{tr.Spans[0].Name, tr.Spans[1].Name, tr.Spans[2].Name}; got[0] != "job" || got[1] != "phase" || got[2] != "range" {
		t.Fatalf("span order = %v", got)
	}
	if byName["job"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["job"].Parent)
	}
	if byName["phase"].Parent != byName["job"].ID {
		t.Errorf("phase parent = %d, want %d", byName["phase"].Parent, byName["job"].ID)
	}
	if byName["range"].Parent != byName["phase"].ID {
		t.Errorf("range parent = %d, want %d", byName["range"].Parent, byName["phase"].ID)
	}
	if len(byName["range"].Attrs) != 2 {
		t.Errorf("range attrs = %v, want from + outcome", byName["range"].Attrs)
	}
}

func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	if Enabled(ctx) {
		t.Fatal("bare context reports tracing enabled")
	}
	ctx2, sp := Start(ctx, "anything")
	if ctx2 != ctx {
		t.Error("Start without recorder should return ctx unchanged")
	}
	sp.End()
	Add(ctx, "retro", time.Now(), time.Second)
	if HeaderValue(ctx) != "" {
		t.Errorf("HeaderValue on bare ctx = %q", HeaderValue(ctx))
	}
	var nilRec *Recorder
	if nilRec.TraceID() != "" || nilRec.JobID() != "" || nilRec.Snapshot() != nil {
		t.Error("nil recorder accessors should return zero values")
	}
}

func TestAddRetroactive(t *testing.T) {
	rec := NewRecorder("j")
	ctx := NewContext(context.Background(), rec)
	ctx, root := Start(ctx, "job")
	start := time.Now().Add(-time.Minute)
	Add(ctx, "queued", start, 250*time.Millisecond, String("why", "backlog"))
	root.End()
	tr := rec.Snapshot()
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.Spans))
	}
	var q Span
	for _, sp := range tr.Spans {
		if sp.Name == "queued" {
			q = sp
		}
	}
	if q.Duration != 250*time.Millisecond || !q.Start.Equal(start) {
		t.Errorf("queued span = %+v", q)
	}
	if q.Parent == 0 {
		t.Error("retroactive span should parent under the current span")
	}
}

// TestRecorderConcurrent hammers one recorder from 8 goroutines; run
// under -race this pins the lock discipline the fabric relies on when
// many ranges record spans at once.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder("j")
	base := NewContext(context.Background(), rec)
	ctx, root := Start(base, "job")

	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sctx, sp := Start(ctx, "range", Int("worker", w))
				_ = HeaderValue(sctx)
				sp.End(String("outcome", "ok"))
			}
		}(w)
	}
	wg.Wait()
	root.End()

	tr := rec.Snapshot()
	if want := workers*perWorker + 1; len(tr.Spans)+tr.Dropped != want {
		t.Fatalf("spans+dropped = %d+%d, want %d", len(tr.Spans), tr.Dropped, want)
	}
	seen := map[int]bool{}
	for _, sp := range tr.Spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span ID %d", sp.ID)
		}
		seen[sp.ID] = true
		if sp.Name == "range" && sp.Parent != 1 {
			t.Fatalf("range span parent = %d, want 1", sp.Parent)
		}
	}
}

func TestRecorderSpanCap(t *testing.T) {
	rec := NewRecorder("j")
	ctx := NewContext(context.Background(), rec)
	total := DefaultMaxSpans + 50
	for i := 0; i < total; i++ {
		_, sp := Start(ctx, "s")
		sp.End()
	}
	tr := rec.Snapshot()
	if len(tr.Spans) != DefaultMaxSpans {
		t.Errorf("retained %d spans, want cap %d", len(tr.Spans), DefaultMaxSpans)
	}
	if tr.Dropped != 50 {
		t.Errorf("dropped = %d, want 50", tr.Dropped)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	rec := NewRecorder("j7")
	ctx := NewContext(context.Background(), rec)
	ctx, sp := Start(ctx, "dispatch")
	h := HeaderValue(ctx)
	tid, sid, ok := ParseHeader(h)
	if !ok || tid != rec.TraceID() || sid != 1 {
		t.Fatalf("ParseHeader(%q) = %q,%d,%v", h, tid, sid, ok)
	}
	sp.End()

	for _, bad := range []string{"", "/", "abc", "abc/", "abc/x", "/5", "abc/-1"} {
		if _, _, ok := ParseHeader(bad); ok {
			t.Errorf("ParseHeader(%q) accepted", bad)
		}
	}
}
