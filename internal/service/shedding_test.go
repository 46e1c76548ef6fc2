package service

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// White-box tests for the worker side of the fabric's graceful degradation:
// POST /v1/partials must shed load with 503 + Retry-After while draining or
// over the inflight cap, and the coordinator-side supervision state must
// surface through /v1/stats and /metrics.

func shedTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	if _, err := s.Registry().RegisterFile("golden", "../../testdata/golden_input.dat"); err != nil {
		t.Fatal(err)
	}
	return s
}

// postPartialReq drives one POST /v1/partials through the full handler chain
// and returns the recorder.
func postPartialReq(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/partials", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// validPartialBody builds a request addressed to the registered dataset.
func validPartialBody(t *testing.T, s *Server) string {
	t.Helper()
	ds, _, ok := s.Registry().Get("golden")
	if !ok {
		t.Fatal("golden dataset missing")
	}
	b, err := json.Marshal(map[string]any{
		"dataset_hash": ds.Hash(),
		"from":         0, "to": 2, "k": 2, "floor": 2,
		"seeds": []uint64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPartialShedsWhileDraining(t *testing.T) {
	s := shedTestServer(t, Options{Workers: 1})
	body := validPartialBody(t, s)

	// Sanity: the request is served before the drain begins.
	if rec := postPartialReq(s, body); rec.Code != 200 {
		t.Fatalf("pre-drain partial: HTTP %d: %s", rec.Code, rec.Body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec := postPartialReq(s, body)
	if rec.Code != 503 {
		t.Fatalf("draining partial: HTTP %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("503 shed response carries no Retry-After header")
	}
	if got := s.Metrics().partialsShed.Load(); got < 1 {
		t.Fatalf("partialsShed = %d, want >= 1", got)
	}
}

func TestPartialShedsOverInflightCap(t *testing.T) {
	s := shedTestServer(t, Options{Workers: 1, PartialsInflight: 2})
	body := validPartialBody(t, s)

	// Saturate the cap from outside the handler: the next request must shed.
	s.partialsInflight.Add(2)
	rec := postPartialReq(s, body)
	if rec.Code != 503 {
		t.Fatalf("over-cap partial: HTTP %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("over-cap shed response carries no Retry-After header")
	}

	// Capacity restored: served again, and the counter was not leaked by the
	// shed path.
	s.partialsInflight.Add(-2)
	if rec := postPartialReq(s, body); rec.Code != 200 {
		t.Fatalf("post-shed partial: HTTP %d: %s", rec.Code, rec.Body)
	}
	if got := s.partialsInflight.Load(); got != 0 {
		t.Fatalf("inflight counter leaked: %d, want 0", got)
	}
}

// TestPartialRejectsNegativeSwapChainLength: the worker answers 400 to a
// negative swap chain length instead of mining with the default chain, and
// to the removed absolute chain length.
func TestPartialRejectsNegativeSwapChainLength(t *testing.T) {
	s := shedTestServer(t, Options{Workers: 1})
	ds, _, ok := s.Registry().Get("golden")
	if !ok {
		t.Fatal("golden dataset missing")
	}
	// swap_proposals is not a request field (swap_ppo alone sets the chain
	// length), so a positive one is refused too, naming the field.
	for field, v := range map[string]int{"swap_ppo": -1, "swap_proposals": 50} {
		b, err := json.Marshal(map[string]any{
			"dataset_hash": ds.Hash(),
			"from":         0, "to": 1, "k": 2, "floor": 2,
			"seeds":     []uint64{1},
			"swap_null": true,
			field:       v,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := postPartialReq(s, string(b))
		if rec.Code != 400 {
			t.Fatalf("%s %d: HTTP %d, want 400: %s", field, v, rec.Code, rec.Body)
		}
		if field == "swap_proposals" && !strings.Contains(rec.Body.String(), field) {
			t.Errorf("%s: error %s does not name the field", field, rec.Body)
		}
	}
}

// TestPartialRejectsOverflowingSwapChainLength: the worker answers 400 to
// a swap chain length (proposals per occurrence times occurrences) that
// overflows an int, instead of mining with a wrapped, arbitrary chain.
func TestPartialRejectsOverflowingSwapChainLength(t *testing.T) {
	s := shedTestServer(t, Options{Workers: 1})
	ds, _, ok := s.Registry().Get("golden")
	if !ok {
		t.Fatal("golden dataset missing")
	}
	b, err := json.Marshal(map[string]any{
		"dataset_hash": ds.Hash(),
		"from":         0, "to": 1, "k": 2, "floor": 2,
		"seeds":     []uint64{1},
		"swap_null": true,
		"swap_ppo":  math.MaxInt,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := postPartialReq(s, string(b))
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "swap chain length") {
		t.Fatalf("overflowing swap_ppo: HTTP %d, want 400 with a swap chain length error: %s", rec.Code, rec.Body)
	}
}

func TestNegativePartialsInflightDisablesCap(t *testing.T) {
	s := shedTestServer(t, Options{Workers: 1, PartialsInflight: -1})
	if rec := postPartialReq(s, validPartialBody(t, s)); rec.Code != 200 {
		t.Fatalf("uncapped partial: HTTP %d: %s", rec.Code, rec.Body)
	}
}

// TestFabricObservability: a coordinator's /v1/stats carries the worker
// supervision snapshot and /metrics renders the fabric families; a plain
// worker omits both.
func TestFabricObservability(t *testing.T) {
	coord := shedTestServer(t, Options{Workers: 1, RemoteWorkers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})

	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Fabric == nil || len(st.Fabric.Workers) != 2 {
		t.Fatalf("coordinator stats fabric = %+v, want 2 workers", st.Fabric)
	}

	rec = httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := rec.Body.String()
	for _, family := range []string{
		"sigfimd_fabric_worker_state{",
		"sigfimd_fabric_worker_ranges_total{",
		"sigfimd_fabric_worker_ejections_total{",
		"sigfimd_fabric_worker_readmissions_total{",
		"sigfimd_fabric_hedged_dispatches_total",
		"sigfimd_fabric_local_fallbacks_total",
		"sigfimd_partials_shed_total",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("coordinator /metrics missing %s", family)
		}
	}

	worker := shedTestServer(t, Options{Workers: 1})
	rec = httptest.NewRecorder()
	worker.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var wst Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &wst); err != nil {
		t.Fatal(err)
	}
	if wst.Fabric != nil {
		t.Fatalf("non-coordinator stats carries fabric: %+v", wst.Fabric)
	}
	rec = httptest.NewRecorder()
	worker.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), "sigfimd_fabric_worker_state") {
		t.Error("non-coordinator /metrics renders fabric worker families")
	}
}
