package service

import (
	"container/list"
	"sync"
)

// LRU is a bounded least-recently-used map from string keys to values,
// safe for concurrent use. The service keeps two: the result cache (a
// canonical job key to the exact marshaled result bytes of a completed
// computation) and the trace store (a job ID to its trace). A capacity
// <= 0 turns it off: every Put is dropped and every Get misses.
//
// A cache hit returns the very bytes the original job produced, so a
// cached answer is byte-for-byte indistinguishable from recomputing —
// sound because the whole pipeline is deterministic for a fixed seed and
// the key captures everything the result depends on (dataset content hash,
// kind, k, resolved configuration; see canonicalRequest). Worker count is
// deliberately NOT part of the key: the engine guarantees bit-identical
// results for every worker count.
type LRU[V any] struct {
	mu           sync.Mutex
	capacity     int
	ll           *list.List // front = most recently used
	byKey        map[string]*list.Element
	hits, misses uint64
}

type lruItem[V any] struct {
	key string
	val V
}

// NewLRU returns an LRU holding up to capacity values.
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// Get returns the value stored under key, marking it most recently used.
// A returned slice or pointer is shared: callers must not modify it.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Put stores val under key, evicting the least recently used entry when
// over capacity. Storing an existing key refreshes its recency but keeps
// the first value: a key is a job ID, put once, or a cache key, whose
// computations are deterministic and hence identical.
func (c *LRU[V]) Put(key string, val V) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&lruItem[V]{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruItem[V]).key)
	}
}

// Len returns the number of stored values.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters returns the lifetime hit and miss counts.
func (c *LRU[V]) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
