package mining

import (
	"cmp"
	"slices"

	"sigfim/internal/bitset"
	"sigfim/internal/dataset"
)

// Eclat: vertical depth-first mining. The search tree is the prefix tree over
// items ordered by ascending support; each node carries the tid list (or
// bitset) of its prefix, refined by intersection as the search descends.
// Fixed-size-k mining prunes the tree at depth k, which is what the paper's
// procedures need (they mine k-itemsets for one k at a time). Over tid lists
// every node counts instead of intersecting, Zaki's L2 trick at every depth
// (countNode); the serial bitset reference miner intersects every candidate.
//
// Every kernel threads a *Scratch carrying its mutable buffers (per-depth
// intersection storage, prefix and sort stacks, pooled dense columns), so a
// reused Scratch makes repeated mines — the Monte Carlo replicate loop —
// allocation-free in steady state.

// ensureScratch returns s, or a fresh Scratch when s is nil (the un-pooled
// entry points).
func ensureScratch(s *Scratch) *Scratch {
	if s == nil {
		return NewScratch()
	}
	return s
}

// frequentItems returns items with support >= minSupport sorted by ascending
// support (the standard Eclat ordering: least frequent first shrinks
// intersections early), allocated at exactly the needed capacity.
func frequentItems(v *dataset.Vertical, minSupport int) []uint32 {
	n := 0
	for _, l := range v.Tids {
		if len(l) >= minSupport {
			n++
		}
	}
	return frequentItemsInto(make([]uint32, 0, n), v, minSupport)
}

// frequentItemsInto is frequentItems appending into a reused buffer.
func frequentItemsInto(items []uint32, v *dataset.Vertical, minSupport int) []uint32 {
	for it, l := range v.Tids {
		if len(l) >= minSupport {
			items = append(items, uint32(it))
		}
	}
	slices.SortFunc(items, func(a, b uint32) int {
		if c := cmp.Compare(len(v.Tids[a]), len(v.Tids[b])); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return items
}

// rankIndex builds the transaction-major index the counting kernel and the
// hash path read, in O(occurrences), into s.idxOff and s.idxRks:
// idxRks[idxOff[t]:idxOff[t+1]] holds, ascending, the ranks of the items
// transaction t contains (items[r] has rank r; the kernel ranks the
// frequent items in eclat order, the hash path in id order). The index is
// valid until the next call.
func (s *Scratch) rankIndex(v *dataset.Vertical, items []uint32) {
	t := v.NumTransactions
	off := grow(s.idxOff, t+1)
	clear(off)
	for _, it := range items {
		for _, tid := range v.Tids[it] {
			off[tid]++
		}
	}
	// Prefix sums leave off[t] at the end of transaction t's run. Filling
	// the ranks in descending order with each cursor walking down from its
	// run's end leaves every run ascending and off[t] at its start.
	total := 0
	for i := 0; i < t; i++ {
		total += off[i]
		off[i] = total
	}
	off[t] = total
	ranks := grow(s.idxRks, total)
	for r := len(items) - 1; r >= 0; r-- {
		for _, tid := range v.Tids[items[r]] {
			off[tid]--
			ranks[off[tid]] = uint32(r)
		}
	}
	s.idxOff, s.idxRks = off, ranks
}

// countNode extends s.prefix, whose last item has rank a and which occurs
// in exactly the transactions tids. One walk over their runs in the rank
// index counts every later rank into the depth's zeroed row, so row[b] is
// the support of prefix ∪ {items[b]}. At depth k-1 the children reaching
// the floor are emitted; above it, a second walk delivers each transaction
// to the frequent children with room left below them, building their tid
// lists back to back, and the kernel descends into them. The row ends
// zeroed; the output is the intersect-all DFS's itemsets, supports, order.
func (e eclatShards) countNode(s *Scratch, a int, tids bitset.TidList, emit func(Itemset, int)) {
	depth := len(s.prefix)
	row := s.rows[depth-1]
	off, ranks, ra := e.s.idxOff, e.s.idxRks, uint32(a)
	for _, tid := range tids {
		// The run is ascending and holds a itself, which stops the walk.
		for j := off[tid+1] - 1; ranks[j] > ra; j-- {
			row[ranks[j]]++
		}
	}
	if depth+1 == e.k {
		for b := a + 1; b < len(e.items); b++ {
			if sup := int(row[b]); sup >= e.minSupport {
				s.prefix = append(s.prefix, e.items[b])
				s.emitSortedScratch(s.prefix, sup, emit)
				s.prefix = s.prefix[:depth]
			}
			row[b] = 0
		}
		return
	}
	// row[b] becomes child b's start in the depth's buffer, or -1 for a
	// child not descended into; delivery advances it to the child's end.
	last, n := len(e.items)-(e.k-depth), int32(0)
	for b := a + 1; b < len(e.items); b++ {
		if c := row[b]; c >= int32(e.minSupport) && b <= last {
			row[b], n = n, n+c
		} else {
			row[b] = -1
		}
	}
	occ := grow(s.tidBufs[depth], int(n))
	s.tidBufs[depth] = occ
	for _, tid := range tids {
		for j := off[tid+1] - 1; ranks[j] > ra; j-- {
			if p := row[ranks[j]]; p >= 0 {
				occ[p] = tid
				row[ranks[j]] = p + 1
			}
		}
	}
	start := int32(0)
	for b := a + 1; b < len(e.items); b++ {
		end := row[b]
		row[b] = 0
		if end < 0 {
			continue
		}
		s.prefix = append(s.prefix, e.items[b])
		e.countNode(s, b, occ[start:end], emit)
		s.prefix = s.prefix[:depth]
		start = end
	}
}

// eclatBitsVisitK streams every k-itemset with support >= minSupport by
// the serial intersect-all DFS over dense bitset columns, in DFS order.
func eclatBitsVisitK(v *dataset.Vertical, k, minSupport int, s *Scratch, emit func(Itemset, int)) {
	items := frequentItemsInto(s.items[:0], v, minSupport)
	s.items = items
	if len(items) < k {
		return
	}
	cols := s.columns(v, items)
	s.ensureBits(v.NumTransactions, k)
	s.ensureDepth(k)
	prefix := s.prefix[:0]
	var rec func(start int, acc *bitset.Bitset)
	rec = func(start int, acc *bitset.Bitset) {
		depth := len(prefix)
		for i := start; i <= len(items)-(k-depth); i++ {
			next := s.bits[depth]
			next.And(acc, cols[i])
			sup := next.Count()
			if sup < minSupport {
				continue
			}
			prefix = append(prefix, items[i])
			if depth+1 == k {
				s.emitSortedScratch(prefix, sup, emit)
			} else {
				rec(i+1, next)
			}
			prefix = prefix[:depth]
		}
	}
	for first := 0; first <= len(items)-k; first++ {
		prefix = append(prefix[:0], items[first])
		if k == 1 {
			s.emitSortedScratch(prefix, len(v.Tids[items[first]]), emit)
		} else {
			rec(first+1, cols[first])
		}
	}
}

// eclatAll mines every itemset (any size >= 1 up to maxLen; maxLen <= 0
// means unbounded) with support >= minSupport over tid lists, sharding the
// first-item subtrees over the worker pool; the output, in DFS order, is
// identical for every worker count.
func eclatAll(v *dataset.Vertical, minSupport, maxLen, workers int) []Result {
	items := frequentItems(v, minSupport)
	bufs := make([][]Result, len(items))
	parallelShards(len(items), workers, func(_, first int) {
		bufs[first] = eclatAllSubtree(v, items, minSupport, maxLen, first)
	})
	return mergeShardResults(bufs)
}

// eclatAllSubtree mines every itemset (all sizes) whose eclat-least item is
// items[first], each as a freshly allocated, id-sorted Result (items are
// visited in support order, not id order). Like the fixed-k subtrees,
// ascending first reproduces the serial DFS order.
func eclatAllSubtree(v *dataset.Vertical, items []uint32, minSupport, maxLen, first int) []Result {
	base := v.Tids[items[first]]
	if len(base) < minSupport {
		return nil
	}
	prefix := make(Itemset, 1, 16)
	prefix[0] = items[first]
	out := []Result{{Items: prefix.Clone(), Support: len(base)}}
	var rec func(start int, tids bitset.TidList)
	rec = func(start int, tids bitset.TidList) {
		depth := len(prefix)
		if maxLen > 0 && depth == maxLen {
			return
		}
		for i := start; i < len(items); i++ {
			next := bitset.Intersect(tids, v.Tids[items[i]])
			sup := len(next)
			if sup < minSupport {
				continue
			}
			prefix = append(prefix, items[i])
			sorted := prefix.Clone()
			sortSmall(sorted)
			out = append(out, Result{Items: sorted, Support: sup})
			rec(i+1, next)
			prefix = prefix[:depth]
		}
	}
	rec(first+1, base)
	return out
}
