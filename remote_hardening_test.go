package sigfim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// White-box tests for the hardened worker round trip: postPartial must
// bound a 200 body and classify non-2xx responses for the supervisor, and
// decodePartial must fully validate the body before the partial is
// accepted.

// roundTrip runs one postPartial + decodePartial exchange into a fresh
// partial, as the fabric does for a winning attempt.
func roundTrip(hc *http.Client, base string, req PartialRequest) (*RangePartial, error) {
	body, err := postPartial(context.Background(), hc, base, req, newBody)
	if err != nil {
		return nil, err
	}
	var rp RangePartial
	if err := decodePartial(body.Bytes(), req, &rp); err != nil {
		return nil, err
	}
	return &rp, nil
}

// partialEcho answers POST /v1/partials with the JSON produced by mutate
// (given a valid echo of the request).
func partialEcho(t *testing.T, mutate func(*RangePartial) any) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req PartialRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode request: %v", err)
			return
		}
		rp := &RangePartial{
			From: req.From, To: req.To, K: req.K, Floor: req.Floor,
			Counts: make([]int32, req.To-req.From),
		}
		body := mutate(rp)
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(body); err != nil {
			t.Errorf("encode response: %v", err)
		}
	}))
}

func hardeningRequest() PartialRequest {
	return PartialRequest{From: 5, To: 10, K: 2, Floor: 3, Seeds: []uint64{1, 2, 3, 4, 5}}
}

func TestPostPartialAcceptsValidEcho(t *testing.T) {
	srv := partialEcho(t, func(rp *RangePartial) any { return rp })
	defer srv.Close()
	rp, err := roundTrip(srv.Client(), srv.URL, hardeningRequest())
	if err != nil {
		t.Fatal(err)
	}
	if rp.From != 5 || rp.To != 10 {
		t.Fatalf("partial covers [%d,%d), want [5,10)", rp.From, rp.To)
	}
}

func TestPostPartialRejectsTrailingGarbage(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// A valid document followed by garbage: a corrupted stream or a
		// confused proxy, not a partial.
		w.Write([]byte(`{"from":5,"to":10,"k":2,"floor":3,"counts":[0,0,0,0,0]}{"oops":1}`))
	}))
	defer srv.Close()
	_, err := roundTrip(srv.Client(), srv.URL, hardeningRequest())
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing garbage accepted: err = %v", err)
	}
}

func TestPostPartialRejectsEchoMismatch(t *testing.T) {
	cases := map[string]func(*RangePartial) any{
		"wrong range": func(rp *RangePartial) any { rp.From++; rp.To++; return rp },
		"wrong k":     func(rp *RangePartial) any { rp.K++; return rp },
		"floor above requested": func(rp *RangePartial) any {
			rp.Floor = rp.Floor + 5
			return rp
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			srv := partialEcho(t, mutate)
			defer srv.Close()
			_, err := roundTrip(srv.Client(), srv.URL, hardeningRequest())
			if err == nil || !strings.Contains(err.Error(), "echo mismatch") {
				t.Fatalf("mismatched echo accepted: err = %v", err)
			}
		})
	}
}

// A floor below the requested one is legal: the merge re-filters, so the
// partial only carries extra entries — the echo check must not refuse it.
func TestPostPartialAcceptsLowerFloor(t *testing.T) {
	srv := partialEcho(t, func(rp *RangePartial) any { rp.Floor = 1; return rp })
	defer srv.Close()
	if _, err := roundTrip(srv.Client(), srv.URL, hardeningRequest()); err != nil {
		t.Fatalf("lower-floor echo refused: %v", err)
	}
}

func TestPostPartialClassifiesShedding(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "worker draining"})
	}))
	defer srv.Close()
	_, err := roundTrip(srv.Client(), srv.URL, hardeningRequest())
	var he *workerHTTPError
	if !errors.As(err, &he) {
		t.Fatalf("want *workerHTTPError, got %v", err)
	}
	if !he.shedding() {
		t.Fatalf("503 not classified as shedding: %+v", he)
	}
	if he.retryAfter != 7*time.Second {
		t.Fatalf("retryAfter = %v, want 7s", he.retryAfter)
	}
	if !strings.Contains(he.Error(), "worker draining") {
		t.Fatalf("error %q does not carry the server's message", he.Error())
	}
}

func TestPostPartialClassifiesHardHTTPFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "kaboom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	_, err := roundTrip(srv.Client(), srv.URL, hardeningRequest())
	var he *workerHTTPError
	if !errors.As(err, &he) {
		t.Fatalf("want *workerHTTPError, got %v", err)
	}
	if he.shedding() {
		t.Fatalf("500 classified as shedding: %+v", he)
	}
}

// TestWorkerPoolDedicatedClient: the fabric must never ride
// http.DefaultClient (which has no timeout) — the pool builds a dedicated
// client carrying the configured per-range deadline.
func TestWorkerPoolDedicatedClient(t *testing.T) {
	p := NewWorkerPool([]string{"http://a"}, WorkerPoolOptions{Timeout: 7 * time.Second})
	defer p.Close()
	hc := p.client()
	if hc == http.DefaultClient {
		t.Fatal("pool uses http.DefaultClient")
	}
	if hc.Timeout != 7*time.Second {
		t.Fatalf("client timeout = %v, want 7s", hc.Timeout)
	}
	if hc.Transport == nil {
		t.Fatal("pool client has no dedicated transport")
	}
}

// newBody is a body buffer source that never recycles.
func newBody() *bytes.Buffer { return new(bytes.Buffer) }

// FuzzPartialResponse drives postPartial and decodePartial against a worker
// that answers 200 with an arbitrary body. Neither may panic, and a partial
// is accepted only from a single JSON document that echoes the requested
// range and k with a floor at or below the requested one — the partial
// must be exactly that document. Every body is decoded twice: into a fresh
// partial, and into a recycled one still holding a previous range's items,
// supports and min p-values, as the coordinator's free list hands it out.
// The two must agree, so no field of an earlier range can survive a decode.
func FuzzPartialResponse(f *testing.F) {
	f.Add([]byte(`{"from":5,"to":10,"k":2,"floor":3,"counts":[0,0,0,0,0]}`))
	f.Add([]byte(`{"from":5,"to":10,"k":2,"floor":1,"counts":[1,0,2,0,0],"items":[1,2,3,4],"sups":[5,6]}`))
	f.Add([]byte(`{"from":5,"to":10,"k":2,"floor":3,"counts":[]} {"from":5}`))
	f.Add([]byte(`{"from":6,"to":11,"k":2,"floor":3}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"from":5,"to":10,"k":2,"floor":3,"counts":[0,0`))
	// A range without min_ps after the recycled partial's range with them:
	// the stale min p-values must not survive.
	f.Add([]byte(`{"from":5,"to":10,"k":2,"floor":3,"counts":[0,1,0,0,0],"items":[2,7],"sups":[4]}`))

	// The worker is an httptest recorder behind an in-memory transport: a
	// socket per rejected body would exhaust ephemeral ports within seconds
	// of fuzzing, since postPartial drops the connection of every response
	// it refuses.
	var body []byte
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		rec.Header().Set("Content-Type", "application/json")
		rec.Write(body)
		return rec.Result(), nil
	})}
	req := hardeningRequest()
	// previous is a valid partial of the same range that carries min_ps, the
	// state a recycled partial is in when the next range arrives.
	previous := []byte(`{"from":5,"to":10,"k":2,"floor":3,"counts":[2,0,0,1,0],"items":[1,2,3,4,5,6],"sups":[9,8,7],"min_ps":[0.25,2,2,0.5,2]}`)

	f.Fuzz(func(t *testing.T, resp []byte) {
		body = resp
		buf, err := postPartial(context.Background(), hc, "http://worker.test", req, newBody)
		if err != nil {
			t.Fatalf("200 response refused before decoding: %v", err)
		}
		var fresh RangePartial
		freshErr := decodePartial(buf.Bytes(), req, &fresh)
		var recycled RangePartial
		if err := decodePartial(previous, req, &recycled); err != nil {
			t.Fatal(err)
		}
		recycledErr := decodePartial(buf.Bytes(), req, &recycled)
		if (freshErr == nil) != (recycledErr == nil) {
			t.Fatalf("fresh decode err = %v, recycled decode err = %v", freshErr, recycledErr)
		}
		if freshErr != nil {
			return
		}
		if !samePartial(&fresh, &recycled) {
			t.Fatalf("recycled decode %+v differs from fresh decode %+v", recycled, fresh)
		}
		var doc RangePartial
		if uerr := json.Unmarshal(resp, &doc); uerr != nil {
			t.Fatalf("accepted a body that is not a single JSON document (%v): %q", uerr, resp)
		}
		if doc.From != req.From || doc.To != req.To || doc.K != req.K || doc.Floor > req.Floor {
			t.Fatalf("accepted a partial that does not echo the request: %q", resp)
		}
		if !samePartial(&fresh, &doc) {
			t.Fatalf("returned partial %+v differs from the document %+v", fresh, doc)
		}
	})
}

// samePartial reports whether two partials hold the same values; a nil and
// an empty slice count as equal, since both encode and merge alike.
func samePartial(a, b *RangePartial) bool {
	return a.From == b.From && a.To == b.To && a.Floor == b.Floor && a.K == b.K &&
		slices.Equal(a.Counts, b.Counts) && slices.Equal(a.Items, b.Items) &&
		slices.Equal(a.Sups, b.Sups) && slices.Equal(a.MinPs, b.MinPs)
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
