package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"sigfim"
	"sigfim/internal/service"
)

// rawBody performs a request and returns the status code and the raw body.
func rawBody(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// terminalFrame reads a job's event stream up to its terminal state frame
// and returns that frame's data line.
func terminalFrame(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("event stream ended before a terminal frame: %v", err)
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		data = bytes.TrimSuffix(data, []byte("\n"))
		var st service.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decode frame %q: %v", data, err)
		}
		if st.State.Terminal() {
			return data
		}
	}
}

// statusResult checks that body is one compact JSON status document —
// exactly the bytes encoding/json produces for the value it decodes to —
// and returns its result bytes as they appear in the body.
func statusResult(t *testing.T, what string, body []byte) json.RawMessage {
	t.Helper()
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("%s: decode %q: %v", what, body, err)
	}
	want, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSuffix(body, []byte("\n")); !bytes.Equal(got, want) {
		t.Fatalf("%s: body is not the encoding of its own value.\nbody: %s\nwant: %s", what, got, want)
	}
	return st.Result
}

// TestCachedResultServedVerbatim: a cached Westfall-Young significant job's
// result (it carries a baseline) reaches every reader as the engine's stored
// bytes, byte for byte — the cache-hit POST, GET /v1/jobs/{id} and the SSE
// terminal frame — inside single-line status documents that equal the
// standard encoding of the status they decode to.
func TestCachedResultServedVerbatim(t *testing.T) {
	srv, ts := newTestServer(t, service.Options{Workers: 1})
	req := service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Delta: 60, Seed: 9, Correction: sigfim.CorrectionWestfallYoung},
	}
	first, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts, first.ID, service.StateDone)

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, hitBody := rawBody(t, http.MethodPost, ts.URL+"/v1/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("cache-hit resubmit: status %d: %s", code, hitBody)
	}
	var hit service.JobStatus
	if err := json.Unmarshal(hitBody, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("resubmit was not a cache hit")
	}
	stored, err := srv.Engine().Get(hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stored.Result), `"Baseline"`) {
		t.Fatalf("stored result carries no baseline: %.200s", stored.Result)
	}

	code, getBody := rawBody(t, http.MethodGet, ts.URL+"/v1/jobs/"+hit.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("GET: status %d", code)
	}
	frame := terminalFrame(t, ts.URL+"/v1/jobs/"+hit.ID+"/events")
	for _, c := range []struct {
		what string
		body []byte
	}{{"cache-hit POST", hitBody}, {"GET /v1/jobs/{id}", getBody}, {"SSE terminal frame", frame}} {
		if bytes.Count(bytes.TrimSuffix(c.body, []byte("\n")), []byte("\n")) != 0 {
			t.Errorf("%s: body spans several lines", c.what)
		}
		if got := statusResult(t, c.what, c.body); !bytes.Equal(got, stored.Result) {
			t.Errorf("%s: result bytes differ from the stored ones.\ngot:    %.200s\nstored: %.200s", c.what, got, stored.Result)
		}
	}
}
