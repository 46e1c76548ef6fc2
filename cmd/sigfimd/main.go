// Command sigfimd serves the significance-mining pipeline over HTTP: named
// datasets are registered once (at startup or by upload) and analysis jobs
// run asynchronously on a bounded worker pool, with repeated queries served
// from a deterministic result cache.
//
// Usage:
//
//	sigfimd [-addr :8080] [-data name=path]... [-workers N] [-queue N]
//	        [-cache N] [-max-upload BYTES] [-metrics=false]
//	        [-workers-remote http://h1:8080,http://h2:8080]
//	        [-workers-remote-timeout 2m] [-workers-remote-hedge 500ms]
//	        [-partials-inflight N] [-trace-retention N] [-debug-addr :6060]
//
// Each -data flag registers one FIMI file (gzip detected transparently)
// under a name before the server starts listening. Quickstart:
//
//	sigfimd -addr :8080 -data golden=testdata/golden_input.dat &
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/jobs \
//	     -d '{"dataset":"golden","kind":"significant","k":2,"config":{"Delta":120,"Seed":9}}'
//	curl localhost:8080/v1/jobs/j000001          # poll status/progress/result
//	curl localhost:8080/v1/jobs/j000001/events   # live SSE progress stream
//	curl localhost:8080/v1/stats
//	curl localhost:8080/metrics                  # Prometheus text format
//
// -metrics=false leaves GET /metrics unrouted (the other endpoints are
// unaffected). "sigfim jobs watch JOB" renders the SSE stream as a live
// progress line.
//
// -workers-remote turns the instance into a coordinator: every job's Monte
// Carlo replicates are sharded across the listed sigfimd workers, addressed
// by dataset content hash (register the same files on each worker; names may
// differ). The workers run under a supervisor shared by all jobs: every
// range request carries the -workers-remote-timeout deadline, a worker that
// keeps failing is ejected and re-probed (/healthz, exponential backoff)
// until it answers again, a 503-shedding worker is backed off without being
// ejected, -workers-remote-hedge re-dispatches straggling ranges to a second
// worker, and a range no worker serves is mined locally — all without
// changing a byte of the result, which stays bit-identical to a
// single-process run. Every sigfimd serves POST /v1/partials, so any
// instance can act as a worker — the flag only controls whether this one
// fans out; -partials-inflight bounds how many partials a worker mines
// concurrently before it sheds load with 503 + Retry-After.
// Ranges are sized by the coordinator: a static split until the workers'
// latency has been observed, then about 2 s of wall time per range on the
// slowest worker; either way the result bytes are unchanged.
//
// Every job records a span trace — queue wait, dataset warm-up, Monte Carlo
// phases, per-range fabric dispatches — served at GET /v1/jobs/{id}/trace
// and rendered by "sigfim jobs trace JOB"; -trace-retention bounds how many
// completed traces are kept (LRU, default 128). -debug-addr starts an
// opt-in net/http/pprof listener on a separate address (keep it private: it
// exposes profiling data and is deliberately not on the API listener).
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight HTTP requests and
// running jobs are drained (up to a timeout), queued jobs are canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sigfim/internal/service"
)

// dataFlags collects repeated -data name=path registrations.
type dataFlags []struct{ name, path string }

func (d *dataFlags) String() string {
	var parts []string
	for _, e := range *d {
		parts = append(parts, e.name+"="+e.path)
	}
	return strings.Join(parts, ",")
}

func (d *dataFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*d = append(*d, struct{ name, path string }{name, path})
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main without os.Exit, so tests can drive the flag and startup error
// paths directly.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sigfimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 2, "job worker pool size")
	queue := fs.Int("queue", 64, "job queue capacity (backpressure bound)")
	cacheSize := fs.Int("cache", 256, "result cache entries (negative disables)")
	maxUpload := fs.Int64("max-upload", 1<<30, "max dataset upload size in bytes")
	metricsOn := fs.Bool("metrics", true, "serve Prometheus metrics at GET /metrics")
	workersRemote := fs.String("workers-remote", "", "comma-separated sigfimd worker base URLs to shard Monte Carlo replicates across (coordinator mode)")
	remoteTimeout := fs.Duration("workers-remote-timeout", 0, "per-range HTTP deadline for remote workers (0 = 2m)")
	remoteHedge := fs.Duration("workers-remote-hedge", 0, "hedge a straggling range onto a second worker after this delay (0 disables)")
	partialsInflight := fs.Int("partials-inflight", 0, "max concurrent POST /v1/partials before shedding with 503 (0 = max(8, 4*GOMAXPROCS), negative = unlimited)")
	traceRetention := fs.Int("trace-retention", 0, "completed job traces kept for GET /v1/jobs/{id}/trace (0 = 128, negative disables)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables; keep private)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown drain timeout")
	var data dataFlags
	fs.Var(&data, "data", "register dataset as name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var remote []string
	for _, w := range strings.Split(*workersRemote, ",") {
		if w = strings.TrimSpace(w); w != "" {
			remote = append(remote, w)
		}
	}

	logger := slog.New(slog.NewTextHandler(stderr, nil))
	srv := service.New(service.Options{
		Workers:          *workers,
		QueueCap:         *queue,
		CacheSize:        *cacheSize,
		MaxUploadBytes:   *maxUpload,
		DisableMetrics:   !*metricsOn,
		RemoteWorkers:    remote,
		RemoteTimeout:    *remoteTimeout,
		RemoteHedgeDelay: *remoteHedge,
		PartialsInflight: *partialsInflight,
		TraceRetention:   *traceRetention,
		Logger:           logger,
	})
	for _, e := range data {
		info, err := srv.Registry().RegisterFile(e.name, e.path)
		if err != nil {
			fmt.Fprintln(stderr, "sigfimd:", err)
			return 1
		}
		logger.Info("dataset registered", "name", info.Name, "hash", info.Hash,
			"transactions", info.NumTransactions, "items", info.NumItems)
	}

	// The pprof surface is opt-in and on its own listener so profiling
	// endpoints are never reachable through the API address. The explicit
	// mux avoids http.DefaultServeMux (and the side-effect registration a
	// blank pprof import would do on it).
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		defer dbg.Close()
		logger.Info("pprof debug listener", "addr", *debugAddr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "datasets", srv.Registry().Len())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// ListenAndServe only returns on failure (bad address, port in use).
		fmt.Fprintln(stderr, "sigfimd:", err)
		return 1
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain_timeout", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	httpErr := httpSrv.Shutdown(drainCtx)
	jobErr := srv.Shutdown(drainCtx)
	if httpErr != nil || jobErr != nil {
		fmt.Fprintln(stderr, "sigfimd: shutdown:", errors.Join(httpErr, jobErr))
		return 1
	}
	logger.Info("bye")
	return 0
}
