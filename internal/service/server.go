// Package service turns the sigfim significance-mining pipeline into a
// long-running HTTP service: a dataset registry of named, immutable,
// content-hashed datasets; an asynchronous job engine running analyses on a
// bounded worker pool with queue backpressure and cooperative cancellation;
// and an LRU result cache that serves repeated queries the exact bytes of
// the original computation. The whole pipeline is deterministic for a fixed
// seed, which is what makes result caching sound and lets the service
// promise bit-identical answers to equivalent direct library calls.
//
// HTTP surface (all bodies compact JSON unless noted; a job status carries
// its stored result bytes verbatim):
//
//	GET    /healthz              liveness probe
//	GET    /metrics              Prometheus text exposition (see Metrics)
//	GET    /v1/stats             jobs run, cache hits, in-flight, uptime
//	GET    /v1/datasets          list registered datasets
//	POST   /v1/datasets?name=N   register a dataset from a FIMI body
//	                             (gzip detected transparently)
//	GET    /v1/datasets/{name}   one dataset's info
//	POST   /v1/partials          mine one Monte Carlo replicate range against
//	                             a dataset addressed by content hash (the
//	                             worker side of the distributed fabric; the
//	                             body is exactly one JSON document; buffers
//	                             are recycled across requests)
//	GET    /v1/jobs              list jobs in submission order (no results)
//	POST   /v1/jobs              submit a job (JobRequest); kinds: significant,
//	                             smin, closed, maximal, rules
//	GET    /v1/jobs/{id}         job status / progress / result (the stored
//	                             result bytes, copied as they are)
//	GET    /v1/jobs/{id}/events  live job stream (Server-Sent Events)
//	GET    /v1/jobs/{id}/trace   completed job's span tree (see internal/trace)
//	DELETE /v1/jobs/{id}         cancel a queued or running job
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sigfim"
	"sigfim/internal/trace"
)

// Options configures a Server; the zero value selects sensible defaults.
type Options struct {
	// Workers is the job pool size (default 2).
	Workers int
	// QueueCap bounds the number of queued-but-not-running jobs before
	// submissions are refused with 503 (default 64).
	QueueCap int
	// CacheSize bounds the LRU result cache entry count (default 256;
	// negative disables caching).
	CacheSize int
	// MaxUploadBytes bounds POST /v1/datasets request bodies
	// (default 1 GiB).
	MaxUploadBytes int64
	// DisableMetrics leaves GET /metrics unrouted. Instrumentation itself is
	// always on (it is a handful of atomics); this only hides the endpoint.
	DisableMetrics bool
	// RemoteWorkers lists base URLs of sigfimd workers this server shards
	// its jobs' Monte Carlo replicates across (coordinator mode); empty runs
	// every job in-process. Results are bit-identical either way, so the
	// result cache and the job API are unaffected. Every sigfimd instance
	// serves POST /v1/partials and can act as a worker — the flag only
	// controls whether this one fans out. The server supervises the listed
	// workers through one long-lived sigfim.WorkerPool shared by all jobs, so
	// ejections and probe schedules persist between jobs.
	RemoteWorkers []string
	// RemoteTimeout bounds every HTTP round trip to a remote worker — the
	// per-range deadline (0 = the WorkerPool default of 2 minutes).
	RemoteTimeout time.Duration
	// RemoteHedgeDelay, when positive, hedges straggling ranges onto a second
	// worker after the delay; the first valid partial wins.
	RemoteHedgeDelay time.Duration
	// TraceRetention bounds how many completed job traces are retained for
	// GET /v1/jobs/{id}/trace (default 128; negative disables tracing).
	// Traces evict LRU independently of job records, so a queryable job may
	// answer 404 for its trace once it ages out of the store.
	TraceRetention int
	// PartialsInflight caps concurrently executing POST /v1/partials requests
	// before the worker sheds load with 503 + Retry-After (0 = max(8,
	// 4*GOMAXPROCS); negative = unlimited). Shedding protects a worker that is
	// also serving its own jobs: the coordinator backs off without ejecting.
	PartialsInflight int
	// Logger receives structured request and lifecycle logs; nil selects
	// slog.Default().
	Logger *slog.Logger

	// jobRetention bounds how many job records (including their result
	// bytes) the engine keeps; the oldest finished jobs beyond it are
	// evicted and their ids answer 404. It is 1024 unless a test lowers it
	// through RetainJobs, and NewEngine floors it at Workers+QueueCap so
	// live jobs are never evicted.
	jobRetention int
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.QueueCap == 0 {
		o.QueueCap = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.jobRetention == 0 {
		o.jobRetention = 1024
	}
	if o.MaxUploadBytes == 0 {
		o.MaxUploadBytes = 1 << 30
	}
	if o.PartialsInflight == 0 {
		o.PartialsInflight = defaultPartialsInflight()
	}
	if o.TraceRetention == 0 {
		o.TraceRetention = 128
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// defaultPartialsInflight is the default cap on concurrently executing
// POST /v1/partials requests, max(8, 4*GOMAXPROCS).
func defaultPartialsInflight() int {
	return max(8, 4*runtime.GOMAXPROCS(0))
}

// Server ties the registry, the job engine, and the result cache together
// behind an http.Handler.
type Server struct {
	registry  *Registry
	cache     *ResultCache
	engine    *Engine
	metrics   *Metrics
	log       *slog.Logger
	maxUpload int64
	pool      *sigfim.WorkerPool // nil unless coordinator mode
	startedAt time.Time
	handler   http.Handler

	// partialsInflight counts executing POST /v1/partials requests, checked
	// against partialsCap (<= 0 disables the cap); over the cap the worker
	// sheds load with 503 so remote coordinators cannot starve this
	// instance's own jobs.
	partialsInflight atomic.Int64
	partialsCap      int64
	// partialFree recycles POST /v1/partials result buffers, so a warm
	// worker mines range after range without regrowing them.
	// It holds at most as many partials as the worker admits at once, and
	// one once the worker is idle.
	partialFree chan *sigfim.RangePartial
}

// New assembles a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	freeCap := opts.PartialsInflight
	if freeCap < 0 { // unlimited admission
		freeCap = defaultPartialsInflight()
	}
	reg := NewRegistry()
	cache := NewResultCache(opts.CacheSize)
	s := &Server{
		registry:    reg,
		cache:       cache,
		engine:      NewEngine(reg, cache, opts.Workers, opts.QueueCap, opts.jobRetention),
		log:         opts.Logger,
		maxUpload:   opts.MaxUploadBytes,
		partialsCap: int64(opts.PartialsInflight),
		partialFree: make(chan *sigfim.RangePartial, freeCap),
		startedAt:   time.Now().UTC(),
	}
	s.metrics = s.engine.Metrics()
	s.engine.log = opts.Logger
	s.engine.traces = trace.NewStore(opts.TraceRetention)
	if len(opts.RemoteWorkers) > 0 {
		s.pool = sigfim.NewWorkerPool(opts.RemoteWorkers, sigfim.WorkerPoolOptions{
			Timeout:    opts.RemoteTimeout,
			HedgeDelay: opts.RemoteHedgeDelay,
		})
		s.engine.pool = s.pool
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if !opts.DisableMetrics {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /v1/datasets", s.handleUploadDataset)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	mux.HandleFunc("POST /v1/partials", s.handleMinePartial)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.handler = s.logged(mux)
	return s
}

// Metrics returns the server's metrics registry (shared with the engine).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the dataset registry for startup registration.
func (s *Server) Registry() *Registry { return s.registry }

// Engine exposes the job engine (tests and stats).
func (s *Server) Engine() *Engine { return s.engine }

// Handler returns the HTTP handler, with request logging attached.
func (s *Server) Handler() http.Handler { return s.handler }

// Pool returns the coordinator's worker supervisor (nil unless coordinator
// mode is configured).
func (s *Server) Pool() *sigfim.WorkerPool { return s.pool }

// Shutdown drains the job engine and releases the worker supervisor; see
// Engine.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.engine.Shutdown(ctx)
	if s.pool != nil {
		s.pool.Close()
	}
	return err
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer so streamed responses (the SSE job
// stream) reach the client as they are produced; without this the wrapper
// would hide the underlying http.Flusher and buffer the whole stream until
// the handler returns.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// logged wraps a handler with structured request logging and the HTTP
// response counter. Every log line carries whatever correlation ids the
// request exposes — job_id from the X-Sigfim-Job header (worker side) or
// the /v1/jobs/{id} path (API side), trace_id and the coordinator's parent
// span from X-Sigfim-Trace — so one grep by job_id collects a job's request
// lines across the coordinator and every worker it fanned out to.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.metrics.observeHTTP(rec.status)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration_ms", float64(time.Since(start).Microseconds()) / 1000,
		}
		if jid := requestJobID(r); jid != "" {
			attrs = append(attrs, "job_id", jid)
		}
		if tid, sid, ok := trace.ParseHeader(r.Header.Get(trace.Header)); ok {
			attrs = append(attrs, "trace_id", tid, "parent_span", sid)
		}
		s.log.Info("request", attrs...)
	})
}

// requestJobID extracts the job a request concerns: the X-Sigfim-Job header
// a coordinator stamps on fabric dispatches, or the {id} segment of a
// /v1/jobs/{id}... path. Empty when the request names no job.
func requestJobID(r *http.Request) string {
	if jid := r.Header.Get(trace.JobHeader); jid != "" {
		return jid
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// writeJSON writes a compact JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status line is already out; nothing to recover
}

// writeStatusJSON writes a job status response (see appendStatusHead). The
// length is known before the first byte goes out, so the response carries
// a Content-Length a client can size its read buffer by.
func writeStatusJSON(w http.ResponseWriter, status int, st JobStatus) {
	head, tail, err := appendStatusHead(nil, st, "\n")
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(st.Result)+len(tail)))
	w.WriteHeader(status)
	_ = writeStatusParts(w, head, st.Result, tail) // the status line is already out
}

// appendStatusHead appends st's compact JSON up to its result to buf and
// returns it with the tail that closes the document after the result, end
// included; without a result the head is the whole document. The job's
// stored result bytes — json.Marshal output, so already compact and valid —
// are then written as they are, never parsed, compacted or re-encoded:
// encoding the envelope with the result left out and writing "result"
// after it (the last field of JobStatus) produces exactly the bytes
// json.Marshal(st) would, without touching the result's bytes, however
// large it is.
func appendStatusHead(buf []byte, st JobStatus, end string) (head []byte, tail string, err error) {
	hasResult := len(st.Result) > 0
	st.Result = nil
	env, err := json.Marshal(st)
	if err != nil {
		return nil, "", err
	}
	if !hasResult {
		return append(append(buf, env...), end...), "", nil
	}
	buf = append(buf, env[:len(env)-1]...)
	return append(buf, `,"result":`...), "}" + end, nil
}

// writeStatusParts writes a status document appendStatusHead split around
// its result.
func writeStatusParts(w io.Writer, head, result []byte, tail string) error {
	if _, err := w.Write(head); err != nil || len(result) == 0 {
		return err
	}
	if _, err := w.Write(result); err != nil {
		return err
	}
	_, err := io.WriteString(w, tail)
	return err
}

// writeError maps the service error classes onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		// Checked before ErrBadRequest: an oversized upload surfaces as a
		// read error inside the FIMI parser, but the client needs 413 ("send
		// less"), not 400 ("malformed").
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Stats is the body of GET /v1/stats.
type Stats struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Datasets      int            `json:"datasets"`
	Jobs          EngineCounters `json:"jobs"`
	Cache         CacheStats     `json:"cache"`
	// Fabric is the worker-supervision snapshot; present only on a
	// coordinator (Options.RemoteWorkers configured).
	Fabric *sigfim.FabricStats `json:"fabric,omitempty"`
}

// CacheStats summarizes the result cache for /v1/stats.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// snapshot reads what /v1/stats and /metrics report from outside the
// metrics registry.
func (s *Server) snapshot() metricsSnapshot {
	jobs, tally := s.engine.counters()
	hits, misses := s.cache.Counters()
	snap := metricsSnapshot{
		Stats: Stats{
			UptimeSeconds: time.Since(s.startedAt).Seconds(),
			Datasets:      s.registry.Len(),
			Jobs:          jobs,
			Cache:         CacheStats{Hits: hits, Misses: misses, Entries: s.cache.Len()},
		},
		tally: tally,
	}
	if s.pool != nil {
		fs := s.pool.Snapshot()
		snap.Fabric = &fs
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot().Stats)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.registry.List()})
}

func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, fmt.Errorf("%w: missing ?name= query parameter", ErrBadRequest))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxUpload)
	info, err := s.registry.RegisterReader(name, body)
	if err != nil {
		writeError(w, err)
		return
	}
	s.log.Info("dataset registered", "name", info.Name, "hash", info.Hash,
		"transactions", info.NumTransactions, "items", info.NumItems, "source", info.Source)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	_, info, ok := s.registry.Get(name)
	if !ok {
		writeError(w, fmt.Errorf("%w: dataset %q", ErrNotFound, name))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// shedPartial answers a POST /v1/partials with 503 + Retry-After: the
// worker is draining or over its inflight cap, and the coordinator should
// back off (not eject) and retry the range elsewhere in the meantime.
func (s *Server) shedPartial(w http.ResponseWriter, reason string, retryAfter int) {
	s.metrics.partialShed()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": reason})
}

// handleMinePartial serves POST /v1/partials: the worker side of the
// distributed replicate fabric. The request addresses a dataset by content
// hash and names a replicate range with its per-replicate seeds, as
// exactly one JSON document (trailing bytes are a 400); the response is
// the mined partial, mined into buffers recycled from request to request
// (see Server.partialFree) and sent with a Content-Length. Execution is
// synchronous on the request goroutine (the coordinator bounds its own
// fan-out concurrency) and honors client disconnects through the request
// context. A draining or saturated worker sheds the request with 503 +
// Retry-After instead of queueing it.
func (s *Server) handleMinePartial(w http.ResponseWriter, r *http.Request) {
	if s.engine.Draining() {
		s.shedPartial(w, "worker draining", 30)
		return
	}
	n := s.partialsInflight.Add(1)
	defer s.partialsInflight.Add(-1)
	if s.partialsCap > 0 && n > s.partialsCap {
		s.shedPartial(w, "partials inflight cap reached", 1)
		return
	}
	var req sigfim.PartialRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: %w", ErrBadRequest, err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		writeError(w, fmt.Errorf("%w: trailing data after the request document: %w", ErrBadRequest, err))
		return
	}
	if req.DatasetHash == "" {
		writeError(w, fmt.Errorf("%w: missing dataset_hash", ErrBadRequest))
		return
	}
	req.Workers = boundWorkers(req.Workers)
	ds, _, ok := s.registry.GetByHash(req.DatasetHash)
	if !ok {
		writeError(w, fmt.Errorf("%w: no dataset with hash %s", ErrNotFound, req.DatasetHash))
		return
	}
	mineStart := time.Now()
	p := s.takePartial()
	defer s.putPartial(p)
	if err := ds.MineReplicateRange(r.Context(), req, p); err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing useful to write
		}
		writeError(w, fmt.Errorf("%w: %w", ErrBadRequest, err))
		return
	}
	s.metrics.partialServed(int64(req.To - req.From))
	plog := s.log
	if jid := r.Header.Get(trace.JobHeader); jid != "" {
		plog = plog.With("job_id", jid)
	}
	if tid, sid, ok := trace.ParseHeader(r.Header.Get(trace.Header)); ok {
		plog = plog.With("trace_id", tid, "parent_span", sid)
	}
	plog.Info("partial mined",
		"from", req.From, "to", req.To, "floor", req.Floor,
		"duration_ms", float64(time.Since(mineStart).Microseconds())/1000)
	// Encode first, so the response carries a Content-Length the
	// coordinator sizes its read buffer by. The buffer is not recycled with
	// the partial: kept on the free list it raised the one-process
	// fabric-lowfloor cluster's peak RSS by ~10%.
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(p); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body.Bytes()) // the status line is already out; nothing to recover
}

// takePartial returns an idle partial buffer for POST /v1/partials, or a
// new one.
func (s *Server) takePartial() *sigfim.RangePartial {
	select {
	case p := <-s.partialFree:
		return p
	default:
		return new(sigfim.RangePartial)
	}
}

// putPartial returns a served partial's buffers for the next request,
// dropping them when the list is full. The last request in flight leaves
// only its own partial behind: an idle worker keeps one set of buffers
// warm for the next range, not one per request it once served at once.
func (s *Server) putPartial(p *sigfim.RangePartial) {
	if s.partialsInflight.Load() == 1 {
		s.dropIdlePartials()
	}
	select {
	case s.partialFree <- p:
	default:
	}
}

// dropIdlePartials empties the partial free list.
func (s *Server) dropIdlePartials() {
	for {
		select {
		case <-s.partialFree:
		default:
			return
		}
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.engine.List()})
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// Wrap, don't flatten: writeError needs the errors.As chain intact to
		// map an oversized body (*http.MaxBytesError) to 413 like the dataset
		// upload path, instead of a misleading 400.
		writeError(w, fmt.Errorf("%w: %w", ErrBadRequest, err))
		return
	}
	st, err := s.engine.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if st.State == StateDone { // served synchronously from the result cache
		status = http.StatusOK
	}
	writeStatusJSON(w, status, st)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.engine.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeStatusJSON(w, http.StatusOK, st)
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the completed job's span
// tree. Traces live in a bounded LRU store separate from job records, so an
// id can answer 404 here (trace evicted, job never traced, or job still
// running) while GET /v1/jobs/{id} still answers 200.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.engine.Trace(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: no trace for job %q", ErrNotFound, id))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.engine.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeStatusJSON(w, http.StatusOK, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, s.snapshot())
}

// handleJobEvents serves GET /v1/jobs/{id}/events: a Server-Sent Events
// stream of one job's lifecycle. The first frame is always an EventState
// frame with the job's current status; afterwards every state transition
// streams as it happens and replicate progress streams as EventProgress
// frames coalesced to at most one per progressInterval. The stream ends
// after the terminal state frame, whose payload matches GET /v1/jobs/{id}
// (for done jobs it carries the result bytes).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	st, sub, cancel, err := s.engine.Watch(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("connection does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	if !writeEvent(w, flusher, JobEvent{Type: EventState, Status: st}) || st.State.Terminal() {
		return
	}
	progress := time.NewTicker(progressInterval)
	defer progress.Stop()
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.notify:
			// State frames flush immediately; pending progress is left for
			// the ticker (a terminal frame supersedes it anyway).
			for _, ev := range sub.takeStates() {
				if !writeEvent(w, flusher, ev) || ev.Status.State.Terminal() {
					return
				}
			}
		case <-progress.C:
			if ev, ok := sub.takeProgress(); ok {
				if !writeEvent(w, flusher, ev) {
					return
				}
			}
		case <-heartbeat.C:
			// Comment frame: keeps idle connections (and the proxies between)
			// alive without touching the event schema.
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// writeEvent writes one SSE frame — event name plus the status snapshot as
// compact JSON, its result bytes copied verbatim (see appendStatusHead) — and
// flushes it; it reports whether the client is still there.
func writeEvent(w io.Writer, flusher http.Flusher, ev JobEvent) bool {
	head, tail, err := appendStatusHead([]byte("event: "+ev.Type+"\ndata: "), ev.Status, "\n\n")
	if err != nil {
		return false
	}
	if err := writeStatusParts(w, head, ev.Status.Result, tail); err != nil {
		return false
	}
	flusher.Flush()
	return true
}
