// Package client is a thin Go client for the sigfimd HTTP API: health and
// stats probes, dataset and job listings, job submission and cancellation,
// and live job watching over the Server-Sent Events stream. It exchanges
// the exact wire types of internal/service — so every job kind the server
// accepts (significant, smin, closed, maximal, rules) and every config knob,
// including the multiple-testing Correction, flows through unchanged — and
// is the library behind the "sigfim jobs" subcommand.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"sigfim"
	"sigfim/internal/service"
	"sigfim/internal/trace"
)

// Client calls one sigfimd server. Construct with New; the zero value has no
// base URL and is not usable.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base, e.g. "http://127.0.0.1:8080".
// A nil httpClient selects http.DefaultClient — deliberately without a
// global timeout, because Watch holds one streaming response open for the
// whole life of a job; bound individual calls through their context, or pass
// a custom client.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// apiError turns a non-2xx response into an error, preferring the service's
// {"error": "..."} envelope.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// do performs one JSON round trip; out nil skips decoding.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	// Read the whole body first, sized by its Content-Length when the server
	// sends one (job statuses do): a streaming decoder would regrow its
	// buffer through a large result instead.
	var raw bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxPresizedBody {
		raw.Grow(int(n) + bytes.MinRead)
	}
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		return err
	}
	return json.Unmarshal(raw.Bytes(), out)
}

// maxPresizedBody bounds the Content-Length a response buffer is sized by
// up front; a longer body is read by growing the buffer as it arrives.
const maxPresizedBody = 64 << 20

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Stats returns GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Datasets lists the registered datasets.
func (c *Client) Datasets(ctx context.Context) ([]service.DatasetInfo, error) {
	var env struct {
		Datasets []service.DatasetInfo `json:"datasets"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/datasets", nil, &env)
	return env.Datasets, err
}

// Jobs lists every job in submission order. Listings omit result bytes by
// contract; fetch a single job with Job to read its result.
func (c *Client) Jobs(ctx context.Context) ([]service.JobStatus, error) {
	var env struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &env)
	return env.Jobs, err
}

// Job returns one job's full status, including its result when done.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Submit posts a job. The returned status is queued (HTTP 202) or, on a
// result-cache hit, already done with the result attached (HTTP 200).
func (c *Client) Submit(ctx context.Context, req service.JobRequest) (service.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.JobStatus{}, err
	}
	var st service.JobStatus
	err = c.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body), &st)
	return st, err
}

// Partial asks the server to mine one Monte Carlo replicate range (POST
// /v1/partials) — the worker side of the distributed replicate fabric. The
// dataset is addressed by content hash inside the request.
func (c *Client) Partial(ctx context.Context, req sigfim.PartialRequest) (*sigfim.RangePartial, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var p sigfim.RangePartial
	if err := c.do(ctx, http.MethodPost, "/v1/partials", bytes.NewReader(body), &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// Trace returns a completed job's span tree (GET /v1/jobs/{id}/trace).
// Traces are retained in a bounded LRU store, so a job the server still
// lists can 404 here once its trace has been evicted.
func (c *Client) Trace(ctx context.Context, id string) (*trace.Trace, error) {
	var tr trace.Trace
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Cancel requests cancellation of a job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Watch consumes the job's Server-Sent Events stream
// (GET /v1/jobs/{id}/events), calling fn — when non-nil — for every frame,
// and returns the terminal status once the stream's final state frame
// arrives. The final status matches what GET /v1/jobs/{id} would return,
// result bytes included. Cancel the context to stop watching early.
func (c *Client) Watch(ctx context.Context, id string, fn func(service.JobEvent)) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, apiError(resp)
	}

	// Minimal SSE parse: "event:"/"data:" fields accumulate until a blank
	// line dispatches the frame; ":" lines are server heartbeats. ReadString
	// grows as needed, so a terminal frame carrying a large result is fine.
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var evType string
	var data bytes.Buffer
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return service.JobStatus{}, fmt.Errorf("event stream ended before a terminal state: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if evType == "" && data.Len() == 0 {
				continue
			}
			var st service.JobStatus
			if err := json.Unmarshal(data.Bytes(), &st); err != nil {
				return service.JobStatus{}, fmt.Errorf("decode %q event: %w", evType, err)
			}
			if fn != nil {
				fn(service.JobEvent{Type: evType, Status: st})
			}
			if evType == service.EventState && st.State.Terminal() {
				return st, nil
			}
			evType = ""
			data.Reset()
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "event:"):
			evType = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		}
	}
}
