package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sigfim"
)

// discardWriter is a ResponseWriter that keeps nothing of the body, so an
// allocation count taken around a request sees only what the handler
// allocated.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// bytesPerGet returns the heap bytes one GET /v1/jobs/{id} allocates on
// average, the response body discarded.
func bytesPerGet(h http.Handler, id string) float64 {
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // warm-up
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestCacheHitGetAllocationFlat: serving a cached job's status copies the
// stored result bytes to the response as they are, so what a GET allocates
// does not grow with the size of the result — a result 1000 times larger
// may add at most one copy of itself. Re-encoding the result (re-validating
// it as a json.RawMessage, or indenting the envelope) costs several copies.
func TestCacheHitGetAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	s := New(Options{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	info, err := s.Registry().RegisterFile("golden", "../../testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	ds, _, _ := s.Registry().Get("golden")
	// cachedJob stores result under a request's cache key, then submits the
	// request, which the cache answers; it returns the job's id.
	cachedJob := func(seed uint64, result []byte) string {
		req := JobRequest{Dataset: "golden", Kind: KindSMin, K: 2, Config: &sigfim.Config{Delta: 40, Seed: seed}}
		canon, err := canonicalize(ds, req)
		if err != nil {
			t.Fatal(err)
		}
		s.cache.Put(cacheKeyFor(info.Hash, canon), result)
		st, err := s.engine.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !st.CacheHit || string(st.Result) != string(result) {
			t.Fatalf("submit was not answered from the cache: %+v", st)
		}
		return st.ID
	}
	// numbers builds a compact JSON result of n integers.
	numbers := func(n int) []byte {
		var b strings.Builder
		b.WriteString(`{"values":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(i))
		}
		b.WriteString("]}")
		return []byte(b.String())
	}
	small, large := numbers(100), numbers(100_000)
	smallID, largeID := cachedJob(1, small), cachedJob(2, large)

	h := s.Handler()
	smallBytes, largeBytes := bytesPerGet(h, smallID), bytesPerGet(h, largeID)
	growth := largeBytes - smallBytes
	t.Logf("GET allocates %.0f B with a %d-byte result, %.0f B with a %d-byte result", smallBytes, len(small), largeBytes, len(large))
	if growth > float64(len(large)) {
		t.Fatalf("a %d-byte larger result made GET allocate %.0f more bytes, more than one copy of it",
			len(large)-len(small), growth)
	}
}

// TestPartialFreeListTrimsWhenIdle: POST /v1/partials takes its partial
// from the server's idle list and gives it back, so when the last partial
// is given back the list keeps one. The trim counts the list's holders,
// not admitted requests: a request being shed does not hold it off.
func TestPartialFreeListTrimsWhenIdle(t *testing.T) {
	s := shedTestServer(t, Options{Workers: 1})
	held := s.partials.Take(newRangePartial) // a request still mining
	s.partialsInflight.Add(1)                // a request being shed
	if rec := postPartialReq(s, validPartialBody(t, s)); rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/partials: HTTP %d: %s", rec.Code, rec.Body)
	}
	s.partials.Put(held)
	if got := s.partials.Len(); got != 1 {
		t.Fatalf("%d idle partials after the last request finished, want 1", got)
	}
}

// TestPartialResponseHasContentLength: a 200 from POST /v1/partials
// declares its body's length, so the coordinator reads it into a buffer
// sized once; the body is the partial's JSON encoding with its newline.
func TestPartialResponseHasContentLength(t *testing.T) {
	s := shedTestServer(t, Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ds, _, _ := s.Registry().Get("golden")
	for _, r := range [][2]int{{0, 16}, {16, 20}} {
		seeds := make([]uint64, r[1]-r[0])
		for i := range seeds {
			seeds[i] = uint64(r[0] + i)
		}
		reqBody, err := json.Marshal(sigfim.PartialRequest{DatasetHash: ds.Hash(), From: r[0], To: r[1], K: 2, Floor: 1, Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/partials", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("range %v: HTTP %d, %v: %s", r, resp.StatusCode, err, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("range %v: Content-Length %d, transfer encoding %v, for a %d-byte body",
				r, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		var p sigfim.RangePartial
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("range %v: the body is not the partial's JSON encoding", r)
		}
		t.Logf("range %v: %d-byte body", r, len(body))
	}
}
