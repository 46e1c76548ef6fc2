package mining

import (
	"slices"

	"sigfim/internal/bitset"
	"sigfim/internal/dataset"
)

// Scratch is the reusable per-worker mining state: frequent-item and DFS
// prefix buffers, per-depth tid-list and bitset buffers, the counting
// kernel's rank index and per-depth count rows, the pooled dense columns,
// the hash path's length histogram and sort buffers, the FP-Growth node
// arena, and a pooled horizontal conversion target. A Scratch is
// single-goroutine — it must never be shared between concurrently mining
// goroutines — but it is reusable across calls and across datasets of any
// shape: every buffer is re-sized (capacity-preserving) per call, so a
// worker's second mine of a similar dataset allocates nothing. The Monte
// Carlo replicate engine keeps one Scratch per worker for the whole run;
// this is what makes the replicate pipeline allocation-free in steady
// state.
//
// Kernels that shard work across an internal worker pool draw one child
// Scratch per worker id from the parent (children are pooled too), so even
// intra-mine parallel runs stop allocating after warmup.
type Scratch struct {
	items    []uint32         // frequent items: eclat support order, or id order on the hash path
	prefix   []uint32         // DFS prefix stack; subset positions on the hash path
	sorted   []uint32         // emit-time sort buffer
	lens     []int32          // per-transaction lengths (hash-path dispatch)
	lenHist  []int64          // transaction length histogram (hash-path dispatch)
	idxOff   []int            // rank index: per-transaction offsets into idxRks
	idxRks   []uint32         // rank index: each transaction's ranks, ascending
	rows     [][]int32        // counting kernel: per-depth child support counts by rank
	tidBufs  [][]uint32       // per-depth tid lists of the frequent children descended into
	bits     []*bitset.Bitset // per-depth bitset intersection scratch
	cols     []*bitset.Bitset // pooled dense columns, parallel to items
	words    []uint64         // hash path: packed (subset, occurrence) words
	wordsTmp []uint64         // hash path: the radix sort's other buffer
	runs     []uint64         // hash path: frequent subsets, (first occurrence, position)
	buckets  []int            // hash path: radix digit counts, one row per pass
	sketch   []uint8          // hash path: saturating subset counters (dropRare)
	horiz    *dataset.Dataset // pooled horizontal conversion target
	fp       fpScratch        // FP-Growth arena (trees, rank maps, buffers)
	sub      []*Scratch       // child scratches for intra-mine worker shards
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// child returns the per-worker child Scratch for shard worker w, creating it
// on first use and reusing it afterwards.
func (s *Scratch) child(w int) *Scratch {
	for len(s.sub) <= w {
		s.sub = append(s.sub, NewScratch())
	}
	return s.sub[w]
}

// ensureDepth guarantees k per-depth tid-list buffers and a k-capacity prefix.
func (s *Scratch) ensureDepth(k int) {
	for len(s.tidBufs) < k {
		s.tidBufs = append(s.tidBufs, nil)
	}
	if cap(s.prefix) < k {
		s.prefix = make([]uint32, 0, k)
	}
	if cap(s.sorted) < k {
		s.sorted = make([]uint32, 0, k)
	}
}

// grow returns buf resized to n with unspecified contents. When buf is too
// small it regrows the way append does, with geometric headroom, so a buffer
// sized by fluctuating replicates settles instead of reallocating at every
// new maximum.
func grow[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// ensureRows guarantees the counting kernel's zeroed rows of m ranks, one
// per prefix depth 1..k-1, and its k-deep prefix, sort and tid-list buffers.
func (s *Scratch) ensureRows(k, m int) {
	s.rows = grow(s.rows, k-1)
	for d := range s.rows {
		s.rows[d] = grow(s.rows[d], m)
		clear(s.rows[d])
	}
	s.ensureDepth(k)
}

// ensureBits guarantees k per-depth bitset buffers of capacity t bits.
func (s *Scratch) ensureBits(t, k int) {
	for len(s.bits) < k {
		s.bits = append(s.bits, bitset.New(0))
	}
	for _, b := range s.bits[:k] {
		b.Reinit(t)
	}
}

// columns fills the pooled dense columns for the given frequent items
// (cols[i] is the bitset of items[i]) and returns the column slice, valid
// until the next call.
func (s *Scratch) columns(v *dataset.Vertical, items []uint32) []*bitset.Bitset {
	for len(s.cols) < len(items) {
		s.cols = append(s.cols, bitset.New(0))
	}
	cols := s.cols[:len(items)]
	for i, it := range items {
		v.Tids[it].ToBitsetInto(v.NumTransactions, cols[i])
	}
	return cols
}

// horizontal returns the pooled transaction-major view of v, rebuilt in
// place; valid until the next call.
func (s *Scratch) horizontal(v *dataset.Vertical) *dataset.Dataset {
	if s.horiz == nil {
		s.horiz = &dataset.Dataset{}
	}
	v.HorizontalInto(s.horiz)
	return s.horiz
}

// sortSmall sorts a short uint32 slice ascending by insertion sort; itemset
// widths are tiny (k items), where this beats sort.Slice and allocates
// nothing.
func sortSmall(a []uint32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// emitSortedScratch hands emit an id-sorted view of the prefix from the
// scratch sort buffer; the slice is valid only during the call.
func (s *Scratch) emitSortedScratch(prefix Itemset, sup int, emit func(Itemset, int)) {
	buf := append(s.sorted[:0], prefix...)
	s.sorted = buf
	sortSmall(buf)
	emit(buf, sup)
}
