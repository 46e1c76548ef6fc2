package service

import (
	"container/list"
	"sync"
)

// ResultCache is a bounded LRU cache from canonical job keys to the exact
// marshaled result bytes of a completed computation. A hit returns the very
// bytes the original job produced, so a cached answer is byte-for-byte
// indistinguishable from recomputing — sound because the whole pipeline is
// deterministic for a fixed seed and the key captures everything the result
// depends on (dataset content hash, kind, k, resolved configuration; see
// canonicalRequest). Worker count is deliberately NOT part of the key: the
// engine guarantees bit-identical results for every worker count.
type ResultCache struct {
	mu           sync.Mutex
	capacity     int
	ll           *list.List // front = most recently used
	byKey        map[string]*list.Element
	hits, misses uint64
}

type cacheItem struct {
	key string
	val []byte
}

// NewResultCache returns an LRU cache holding up to capacity results;
// capacity <= 0 disables caching (every lookup misses, stores are dropped).
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// Get returns the cached result bytes for key, marking the entry most
// recently used. The returned slice is shared — callers must not modify it.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// Put stores the result bytes under key, evicting the least recently used
// entry when over capacity. Storing an existing key refreshes its recency
// but keeps the original bytes (both computations of the same key are
// deterministic, hence identical).
func (c *ResultCache) Put(key string, val []byte) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheItem{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheItem).key)
	}
}

// Len returns the number of cached results.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters returns the lifetime hit and miss counts.
func (c *ResultCache) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
