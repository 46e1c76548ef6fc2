package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"sigfim"
	"sigfim/internal/client"
	"sigfim/internal/service"
)

// datasetName is the name every in-process sigfimd registers the workload's
// dataset under.
const datasetName = "bench"

// server is one sigfimd instance on a loopback listener in this process.
type server struct {
	svc  *service.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(ds *sigfim.Dataset, opts service.Options) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	svc := service.New(opts)
	if _, err := svc.Registry().Register(datasetName, ds, "sigfimbench"); err != nil {
		ln.Close()
		return nil, errors.Join(err, svc.Shutdown(context.Background()))
	}
	s := &server{svc: svc, hs: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, drains the job engine, and waits for Serve to
// return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(s.hs.Shutdown(ctx), s.svc.Shutdown(ctx))
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// cluster is a sigfimd coordinator sharding replicates over remote sigfimd
// workers (none for a plain single server), driven by one closed-loop client.
type cluster struct {
	coord   *server
	workers []*server
	api     *client.Client
}

func startCluster(ctx context.Context, ds *sigfim.Dataset, remote int) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i := 0; i < remote; i++ {
		s, err := startServer(ds, service.Options{})
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		c.workers = append(c.workers, s)
		urls = append(urls, s.url)
	}
	coord, err := startServer(ds, service.Options{RemoteWorkers: urls})
	if err != nil {
		return nil, errors.Join(err, c.close())
	}
	c.coord = coord
	c.api = client.New(coord.url, nil)
	for _, s := range append([]*server{coord}, c.workers...) {
		if err := client.New(s.url, nil).Health(ctx); err != nil {
			return nil, errors.Join(fmt.Errorf("%s not healthy: %w", s.url, err), c.close())
		}
	}
	return c, nil
}

func (c *cluster) close() error {
	var err error
	if c.coord != nil {
		err = c.coord.close()
	}
	for _, s := range c.workers {
		err = errors.Join(err, s.close())
	}
	return err
}

func request(k int, cfg sigfim.Config) service.JobRequest {
	return service.JobRequest{Dataset: datasetName, Kind: service.KindSignificant, K: k, Config: &cfg}
}

// significant submits one significant job and, unless the submission was
// answered from the result cache, watches its event stream to the terminal
// state.
func (c *cluster) significant(ctx context.Context, k int, cfg sigfim.Config) (service.JobStatus, error) {
	st, err := c.api.Submit(ctx, request(k, cfg))
	if err != nil {
		return st, err
	}
	if !st.State.Terminal() {
		if st, err = c.api.Watch(ctx, st.ID, nil); err != nil {
			return st, err
		}
	}
	if st.State != service.StateDone {
		return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

// hit resubmits a computed job, checks that the cache answers it
// synchronously with the bytes of the original computation, and returns the
// client-observed latency of the submission.
func (c *cluster) hit(ctx context.Context, k int, miss computed) (time.Duration, error) {
	t := time.Now()
	st, err := c.api.Submit(ctx, request(k, miss.cfg))
	lat := time.Since(t)
	if err != nil {
		return lat, err
	}
	if st.State != service.StateDone || !st.CacheHit {
		return lat, fmt.Errorf("job %s: state %s, cache_hit %v", st.ID, st.State, st.CacheHit)
	}
	raw, err := compact(st.Result)
	if err != nil {
		return lat, err
	}
	if !bytes.Equal(raw, miss.raw) {
		return lat, fmt.Errorf("job %s: cache hit returned %d bytes that differ from the %d computed", st.ID, len(raw), len(miss.raw))
	}
	return lat, nil
}
