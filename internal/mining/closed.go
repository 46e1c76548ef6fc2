package mining

import (
	"sigfim/internal/bitset"
	"sigfim/internal/dataset"
)

// Closed itemsets. An itemset is closed when no proper superset has the same
// support; equivalently, when it equals its closure — the set of all items
// present in every transaction containing it. The paper uses closed itemsets
// in Section 4.1 to interpret the 27M significant 4-itemsets of Bms1: one
// closed itemset of cardinality 154 accounts for over 22M of them.
//
// ClosedAll enumerates closed itemsets directly with prefix-preserving
// closure extensions (the LCM scheme): each closed itemset is generated
// exactly once, without storing previously found sets, and — crucially — a
// single huge closed block is ONE output, not 2^|block| frequent subsets.

// Closure returns the closure of the itemset: every item whose tid list
// contains tids(X). For an itemset with support zero the closure is returned
// as the itemset itself.
func Closure(v *dataset.Vertical, items Itemset) Itemset {
	tids := v.TidListOf(items)
	if len(tids) == 0 {
		return items.Clone()
	}
	return closureOfTids(v, tids)
}

// closureOfTids returns all items present in every transaction of tids.
func closureOfTids(v *dataset.Vertical, tids bitset.TidList) Itemset {
	sup := len(tids)
	out := make(Itemset, 0, 8)
	for it := 0; it < v.NumItems(); it++ {
		l := v.Tids[it]
		if len(l) < sup {
			continue
		}
		if bitset.IntersectCount(l, tids) == sup {
			out = append(out, uint32(it))
		}
	}
	return out
}

// IsClosed reports whether the itemset equals its closure.
func IsClosed(v *dataset.Vertical, items Itemset) bool {
	return Closure(v, items).Equal(items)
}

// ClosedAll enumerates every closed itemset (size >= 1) with support >=
// minSupport, in no particular order, sorted on return for determinism.
func ClosedAll(v *dataset.Vertical, minSupport int) []Result {
	var out []Result
	VisitClosed(v, minSupport, func(items Itemset, support int) bool {
		out = append(out, Result{Items: items.Clone(), Support: support})
		return true
	})
	SortResults(out)
	return out
}

// VisitClosed streams every closed itemset with support >= minSupport to
// visit; returning false stops the enumeration. The items slice is only
// valid during the call.
func VisitClosed(v *dataset.Vertical, minSupport int, visit func(items Itemset, support int) bool) {
	if minSupport < 1 {
		panic("mining: VisitClosed requires minSupport >= 1")
	}
	if v.NumTransactions == 0 {
		return
	}
	stopped := false
	var rec func(p Itemset, tids bitset.TidList, core int)
	rec = func(p Itemset, tids bitset.TidList, core int) {
		for i := core + 1; i < v.NumItems(); i++ {
			if stopped {
				return
			}
			it := uint32(i)
			if p.Contains(it) {
				continue
			}
			if len(v.Tids[i]) < minSupport {
				continue
			}
			newTids := bitset.Intersect(tids, v.Tids[i])
			if len(newTids) < minSupport {
				continue
			}
			q := closureOfTids(v, newTids)
			// Prefix-preserving check: the closure must not introduce any
			// item below the extension item i that p lacks; otherwise q is
			// (or will be) generated from a smaller extension.
			if prefixPreserved(p, q, it) {
				if !visit(q, len(newTids)) {
					stopped = true
					return
				}
				rec(q, newTids, i)
			}
		}
	}
	// Root: the closure of the empty set (items in every transaction).
	all := make(bitset.TidList, v.NumTransactions)
	for i := range all {
		all[i] = uint32(i)
	}
	if len(all) < minSupport {
		// Not even the full transaction set reaches minSupport; impossible
		// since minSupport >= 1 and t >= 1, kept for clarity.
		return
	}
	root := closureOfTids(v, all)
	if len(root) > 0 {
		if !visit(root, len(all)) {
			return
		}
	}
	rec(root, all, -1)
}

// prefixPreserved reports whether every element of q below ext is already in
// p (both sorted).
func prefixPreserved(p, q Itemset, ext uint32) bool {
	j := 0
	for _, it := range q {
		if it >= ext {
			break
		}
		for j < len(p) && p[j] < it {
			j++
		}
		if j >= len(p) || p[j] != it {
			return false
		}
		j++
	}
	return true
}

// MaxClosedCardinality returns a largest-cardinality closed itemset with
// support >= minSupport and its support ((nil, 0) if none exists).
// Reproduces the paper's Bms1 diagnostic: one closed itemset of cardinality
// 154 with support > 7 explains over 22M significant subsets.
func MaxClosedCardinality(v *dataset.Vertical, minSupport int) (Itemset, int) {
	var best Itemset
	bestSup := 0
	VisitClosed(v, minSupport, func(items Itemset, support int) bool {
		if len(items) > len(best) || (len(items) == len(best) && support > bestSup) {
			best = items.Clone()
			bestSup = support
		}
		return true
	})
	return best, bestSup
}
