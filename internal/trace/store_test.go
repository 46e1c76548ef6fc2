package trace_test

import (
	"fmt"
	"testing"

	"sigfim/internal/service"
	"sigfim/internal/trace"
)

// sigfimd retains the last N job traces in a service.LRU[*trace.Trace]
// (the trace store). These tests pin that store's retention behaviour.

func TestStoreLRU(t *testing.T) {
	s := service.NewLRU[*trace.Trace](3)
	put := func(id string) { s.Put(id, &trace.Trace{TraceID: id, JobID: id}) }
	put("a")
	put("b")
	put("c")
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing")
	}
	put("d")
	if _, ok := s.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, id := range []string{"a", "c", "d"} {
		if tr, ok := s.Get(id); !ok || tr.JobID != id {
			t.Errorf("%s should survive", id)
		}
	}
	// A re-put refreshes the ID but keeps its first trace, without growing:
	// each job ID is put once, when the job finishes.
	s.Put("d", &trace.Trace{TraceID: "d2"})
	if tr, _ := s.Get("d"); tr.TraceID != "d" {
		t.Errorf("re-put replaced the first trace: %q", tr.TraceID)
	}
	if s.Len() != 3 {
		t.Errorf("len after re-put = %d, want 3", s.Len())
	}
}

func TestStoreDisabledAndNil(t *testing.T) {
	s := service.NewLRU[*trace.Trace](0)
	s.Put("a", &trace.Trace{})
	if _, ok := s.Get("a"); ok {
		t.Error("capacity 0 store retained a trace")
	}
	s.Put("b", nil)
	if _, ok := s.Get("b"); ok {
		t.Error("capacity 0 store retained a nil trace")
	}
	if s.Len() != 0 {
		t.Errorf("capacity 0 store Len = %d, want 0", s.Len())
	}
	if hits, misses := s.Counters(); hits != 0 || misses != 2 {
		t.Errorf("counters = %d hits %d misses, want 0/2", hits, misses)
	}
}

func TestStoreEvictionOrderIsLRU(t *testing.T) {
	s := service.NewLRU[*trace.Trace](8)
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("j%03d", i)
		s.Put(id, &trace.Trace{JobID: id})
	}
	if s.Len() != 8 {
		t.Fatalf("len = %d, want 8", s.Len())
	}
	for i := 0; i < 16; i++ {
		if _, ok := s.Get(fmt.Sprintf("j%03d", i)); ok {
			t.Errorf("old trace j%03d survived", i)
		}
	}
	for i := 16; i < 24; i++ {
		if _, ok := s.Get(fmt.Sprintf("j%03d", i)); !ok {
			t.Errorf("recent trace j%03d evicted", i)
		}
	}
}
