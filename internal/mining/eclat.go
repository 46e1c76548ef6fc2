package mining

import (
	"sort"

	"sigfim/internal/bitset"
	"sigfim/internal/dataset"
)

// Eclat: vertical depth-first mining. The search tree is the prefix tree over
// items ordered by ascending support; each node carries the tid list (or
// bitset) of its prefix, refined by intersection as the search descends.
// Fixed-size-k mining prunes the tree at depth k, which is what the paper's
// procedures need (they mine k-itemsets for one k at a time).
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
	sort.Slice(items, func(a, b int) bool {
		la, lb := len(v.Tids[items[a]]), len(v.Tids[items[b]])
		if la != lb {
			return la < lb
		}
		return items[a] < items[b]
	})
	return items
}

// eclatKTidListSubtree mines the prefix-tree subtree rooted at items[first]:
// every size-k itemset whose least-frequent member (in eclat order) is
// items[first]. The subtrees for first = 0..len(items)-k partition the full
// search space, which is the unit of work the parallel driver shards; visiting
// them in ascending first reproduces the serial DFS emission order exactly.
func eclatKTidListSubtree(v *dataset.Vertical, items []uint32, k, minSupport, first int, s *Scratch, emit func(Itemset, int)) {
	it := items[first]
	base := v.Tids[it]
	if len(base) < minSupport {
		return
	}
	s.ensureDepth(k)
	prefix := append(s.prefix[:0], it)
	if k == 1 {
		s.emitSortedScratch(prefix, len(base), emit)
		return
	}
	var rec func(start int, tids bitset.TidList)
	rec = func(start int, tids bitset.TidList) {
		depth := len(prefix)
		for i := start; i <= len(items)-(k-depth); i++ {
			next := bitset.IntersectTo(s.tidBufs[depth][:0], tids, v.Tids[items[i]])
			s.tidBufs[depth] = next
			sup := len(next)
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
	rec(first+1, base)
}

// eclatKBitsetSubtree is eclatKTidListSubtree over dense bitset columns;
// cols[i] is the column of items[i]. The caller must have sized s's bitset
// scratch via ensureBits.
func eclatKBitsetSubtree(v *dataset.Vertical, items []uint32, cols []*bitset.Bitset, s *Scratch, k, minSupport, first int, emit func(Itemset, int)) {
	it := items[first]
	if len(v.Tids[it]) < minSupport {
		return
	}
	s.ensureDepth(k)
	prefix := append(s.prefix[:0], it)
	if k == 1 {
		s.emitSortedScratch(prefix, len(v.Tids[it]), emit)
		return
	}
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
	rec(first+1, cols[first])
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
