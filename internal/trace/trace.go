// Package trace is a dependency-free, in-process tracing subsystem for
// sigfim jobs. A Recorder collects completed Spans (name, attributes,
// start time, duration, parent) into a Trace; the recorder travels down
// through context.Context so every layer of a job — engine, pipeline,
// Monte Carlo phases, per-range fabric dispatches — can annotate the same
// trace without plumbing new parameters through public signatures.
//
// Tracing is pure observation: a recorder never influences scheduling,
// random number generation, or merge order, so report bytes are identical
// with tracing on or off. All operations are nil-safe; code paths record
// spans unconditionally and pay nothing when no recorder is in context.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Header is the HTTP header propagating trace context from a coordinator
// to a worker, formatted "traceID/spanID" (see FormatHeader/ParseHeader).
const Header = "X-Sigfim-Trace"

// JobHeader carries the coordinator's job ID alongside Header so worker
// log lines can be grepped together with the coordinator's by job_id.
const JobHeader = "X-Sigfim-Job"

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String returns a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an integer-valued attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Span is one completed, named interval of a trace. Parent is the ID of
// the enclosing span, or 0 for a root span. IDs are assigned in start
// order, so sorting by ID reconstructs the order work began.
type Span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Trace is the completed span set of one job.
type Trace struct {
	TraceID string `json:"trace_id"`
	JobID   string `json:"job_id,omitempty"`
	Spans   []Span `json:"spans"`
	// Dropped counts spans discarded after the recorder's span cap was
	// reached; nonzero means the trace is truncated, not that work was lost.
	Dropped int `json:"dropped_spans,omitempty"`
}

// DefaultMaxSpans bounds the spans a single recorder retains. Traces are
// phase- and range-grained, so real jobs sit far below this; the cap is a
// memory backstop, not an expected operating point.
const DefaultMaxSpans = 8192

// Recorder accumulates completed spans for one trace. It is safe for
// concurrent use; recording a span takes one short critical section
// (append under a mutex), cheap next to the work being measured.
type Recorder struct {
	traceID string
	jobID   string

	mu      sync.Mutex
	nextID  int
	spans   []Span
	dropped int
}

// NewRecorder returns a recorder with a fresh random trace ID, tagged
// with the job it traces (may be empty outside the service).
func NewRecorder(jobID string) *Recorder {
	return &Recorder{traceID: newTraceID(), jobID: jobID}
}

func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Trace IDs only need to be distinguishable, not secret; fall
		// back to a process-unique counter if the system RNG is broken.
		return fmt.Sprintf("trace-%d", fallbackID.next())
	}
	return hex.EncodeToString(b[:])
}

var fallbackID counter

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) next() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// TraceID returns the recorder's trace ID; empty for a nil recorder.
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID
}

// JobID returns the job the recorder traces; empty for a nil recorder.
func (r *Recorder) JobID() string {
	if r == nil {
		return ""
	}
	return r.jobID
}

// startID reserves the next span ID.
func (r *Recorder) startID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a completed span, dropping it if the recorder is full.
func (r *Recorder) add(sp Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= DefaultMaxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, sp)
}

// Add records an already-timed span as a child of the span current in ctx.
// It is the retroactive form of Start/End, for intervals whose bounds were
// measured before a recorder existed (e.g. queue wait before a job ran).
func Add(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...Attr) {
	r, parent := fromContext(ctx)
	if r == nil {
		return
	}
	r.add(Span{ID: r.startID(), Parent: parent, Name: name, Start: start, Duration: d, Attrs: attrs})
}

// AddRoot records an already-timed root span directly on the recorder,
// for traces built outside a context flow (e.g. cache-hit jobs whose
// "work" completed before any pipeline ran).
func (r *Recorder) AddRoot(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if r == nil {
		return
	}
	r.add(Span{ID: r.startID(), Name: name, Start: start, Duration: d, Attrs: attrs})
}

// Snapshot returns a copy of the trace so far, spans ordered by start
// (ID). The recorder remains usable after a snapshot.
func (r *Recorder) Snapshot() *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := make([]Span, len(r.spans))
	copy(spans, r.spans)
	dropped := r.dropped
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	return &Trace{TraceID: r.traceID, JobID: r.jobID, Spans: spans, Dropped: dropped}
}

// Active is a live span handle returned by Start. A nil *Active is valid
// and all its methods are no-ops, so callers never branch on whether
// tracing is enabled.
type Active struct {
	rec   *Recorder
	id    int
	start time.Time
	name  string
	prnt  int
	attrs []Attr
}

// End completes the span, appending any final attributes, and records it.
func (a *Active) End(attrs ...Attr) {
	if a == nil {
		return
	}
	a.rec.add(Span{
		ID:       a.id,
		Parent:   a.prnt,
		Name:     a.name,
		Start:    a.start,
		Duration: time.Since(a.start),
		Attrs:    append(a.attrs, attrs...),
	})
}

// FormatHeader renders trace context for the wire: "traceID/spanID".
func FormatHeader(traceID string, spanID int) string {
	return traceID + "/" + strconv.Itoa(spanID)
}

// ParseHeader inverts FormatHeader. ok is false for an empty or
// malformed value.
func ParseHeader(v string) (traceID string, spanID int, ok bool) {
	tid, sid, found := strings.Cut(v, "/")
	if !found || tid == "" {
		return "", 0, false
	}
	n, err := strconv.Atoi(sid)
	if err != nil || n < 0 {
		return "", 0, false
	}
	return tid, n, true
}
