// Package idle recycles the buffers a worker's concurrent requests mine
// into, so a warm worker mines range after range without regrowing them.
package idle

import (
	"runtime"
	"sync"
)

// Bound is the most buffers a List keeps idle, max(8, 4·GOMAXPROCS): the
// concurrent partial requests a sigfimd worker admits by default. A list
// never keeps more buffers than were in use at once, and up to that many
// are then reused instead of regrown.
func Bound() int {
	return max(8, 4*runtime.GOMAXPROCS(0))
}

// List is a bounded stack of idle buffers that counts its holders. While
// buffers are held it keeps up to Bound of the returned ones; when the last
// holder returns its buffer, it keeps only that one, so an idle worker
// carries one buffer warm for the next request, not one per request it
// once served at once. The zero List is empty and ready to use; it is safe
// for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	idle []T
	held int
}

// Take returns an idle buffer, or fresh() when none is idle. The caller
// holds the buffer until it gives it back with Put.
func (l *List[T]) Take(fresh func() T) T {
	l.mu.Lock()
	l.held++
	if n := len(l.idle); n > 0 {
		x := l.idle[n-1]
		clear(l.idle[n-1:])
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return fresh()
}

// Put gives back a buffer taken with Take, dropping it when the list is
// full.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.held--
	if l.held == 0 {
		clear(l.idle)
		l.idle = l.idle[:0]
	}
	if len(l.idle) < Bound() {
		l.idle = append(l.idle, x)
	}
}

// Len returns the number of idle buffers.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle)
}
