package service

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestBoundWorkers: a request's Workers is capped at GOMAXPROCS, and 0
// (every CPU) passes through.
func TestBoundWorkers(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ in, want int }{{0, 0}, {1, 1}, {n, n}, {n + 1, n}, {1 << 20, n}} {
		if got := boundWorkers(c.in); got != c.want {
			t.Errorf("boundWorkers(%d) = %d, want %d (GOMAXPROCS %d)", c.in, got, c.want, n)
		}
	}
}

// TestPartialWorkersBounded: a partial request asking for 1<<20 workers
// answers with the bytes of a serial one.
func TestPartialWorkersBounded(t *testing.T) {
	s := shedTestServer(t, Options{Workers: 1})
	ds, _, ok := s.Registry().Get("golden")
	if !ok {
		t.Fatal("golden dataset missing")
	}
	body := func(workers int) string {
		b, err := json.Marshal(map[string]any{
			"dataset_hash": ds.Hash(),
			"from":         0, "to": 4, "k": 2, "floor": 20,
			"seeds":   []uint64{1, 2, 3, 4},
			"workers": workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial := postPartialReq(s, body(1))
	wide := postPartialReq(s, body(1<<20))
	if serial.Code != 200 || wide.Code != 200 {
		t.Fatalf("HTTP %d and %d, want 200: %s %s", serial.Code, wide.Code, serial.Body, wide.Body)
	}
	if serial.Body.String() != wide.Body.String() {
		t.Errorf("workers 1<<20 answered\n%s\nworkers 1 answered\n%s", wide.Body, serial.Body)
	}
}
