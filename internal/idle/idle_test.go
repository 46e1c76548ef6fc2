package idle

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestList drives the idle list through fixed sequences of takes and puts.
// In ops, T takes a buffer, P gives back the most recently taken one still
// held and Q the earliest. After every step the list holds at most Bound
// buffers, none of them held; a take reuses an idle buffer when there is
// one and makes a fresh one only when there is not; and once no holder is
// left the list keeps exactly the last buffer given back, which the next
// take reuses.
func TestList(t *testing.T) {
	bound := Bound()
	for _, tc := range []struct {
		name, ops string
	}{
		{"one holder", "TP"},
		{"stack order", "TTTPPP"},
		{"queue order", "TTTQQQ"},
		{"interleaved", "TTPTTQPPTP"},
		{"beyond the bound", strings.Repeat("T", bound+3) + strings.Repeat("Q", bound+3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var l List[*int]
			fresh := 0
			newBuf := func() *int { fresh++; return new(int) }
			var held []*int
			var last *int
			for i, op := range tc.ops {
				switch op {
				case 'T':
					idleBefore, freshBefore := l.Len(), fresh
					x := l.Take(newBuf)
					if slices.Contains(held, x) {
						t.Fatalf("step %d: a held buffer was handed out again", i)
					}
					if made := fresh > freshBefore; made != (idleBefore == 0) {
						t.Fatalf("step %d: made a fresh buffer = %v with %d idle", i, made, idleBefore)
					}
					held = append(held, x)
				case 'P':
					last = held[len(held)-1]
					held = held[:len(held)-1]
					l.Put(last)
				case 'Q':
					last = held[0]
					held = held[1:]
					l.Put(last)
				}
				if n := l.Len(); n > bound {
					t.Fatalf("step %d: %d idle buffers, bound %d", i, n, bound)
				}
				for _, x := range l.idle {
					if slices.Contains(held, x) {
						t.Fatalf("step %d: a held buffer is on the idle list", i)
					}
				}
			}
			if len(held) != 0 {
				t.Fatalf("ops %q leave %d holders", tc.ops, len(held))
			}
			if n := l.Len(); n != 1 {
				t.Fatalf("%d idle buffers after the last holder returned, want 1", n)
			}
			if x := l.Take(newBuf); x != last {
				t.Fatal("the next take did not reuse the buffer kept")
			}
		})
	}
}

// TestListConcurrent: goroutines take and give back buffers at once; no
// buffer is ever held twice, and the list ends with the one kept buffer.
func TestListConcurrent(t *testing.T) {
	var l List[*atomic.Bool]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := l.Take(func() *atomic.Bool { return new(atomic.Bool) })
				if x.Swap(true) {
					t.Error("a held buffer was handed out again")
				}
				x.Store(false)
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if n := l.Len(); n != 1 {
		t.Fatalf("%d idle buffers after every holder returned, want 1", n)
	}
}
