package mining

import (
	"sigfim/internal/dataset"
)

// Low-threshold mining path. Eclat's pruning collapses when minSupport is a
// handful of transactions: with threshold 1 every item is "frequent" and the
// DFS probes every candidate extension even though almost all have empty
// intersections. For sparse datasets (short transactions) the k-itemsets
// with support >= 1 are exactly the k-subsets occurring inside transactions,
// so enumerating each transaction's C(len, k) subsets into a hash table is
// dramatically cheaper. useHashPath estimates that enumeration cost from the
// transaction lengths, and visitShortcut takes the hash path when it wins.
//
// The counting table is a string-free ItemsetTable (open addressing over the
// packed item tuples) with a parallel count array, both pooled in the
// Scratch; emission replays the table in insertion order, which is
// deterministic (first-occurrence order over the transaction scan), unlike
// the Go map iteration the original implementation leaned on.

// subsetBudget caps the per-transaction enumeration volume (and with it the
// hash table size) before falling back to Eclat.
const subsetBudget = 3_000_000

// hashPathMaxSupport bounds the thresholds for which the hash path is even
// considered; at higher thresholds Eclat's pruning works fine.
const hashPathMaxSupport = 8

// scratchLengths recovers the per-transaction lengths from the vertical
// layout in O(total occurrences), into the pooled buffer.
func (s *Scratch) scratchLengths(v *dataset.Vertical) []int {
	if cap(s.lens) < v.NumTransactions {
		s.lens = make([]int, v.NumTransactions)
	}
	lens := s.lens[:v.NumTransactions]
	s.lens = lens
	for i := range lens {
		lens[i] = 0
	}
	for _, l := range v.Tids {
		for _, tid := range l {
			lens[tid]++
		}
	}
	return lens
}

// subsetEnumerationCost returns sum over transactions of C(len, k), capped
// at limit+1 once it exceeds the limit.
func subsetEnumerationCost(lens []int, k int, limit int64) int64 {
	var total int64
	for _, n := range lens {
		if n < k {
			continue
		}
		// C(n, k) with overflow care for the small k we use (k <= ~8).
		c := int64(1)
		for i := 0; i < k; i++ {
			c = c * int64(n-i) / int64(i+1)
			if c > limit {
				return limit + 1
			}
		}
		total += c
		if total > limit {
			return limit + 1
		}
	}
	return total
}

// useHashPath decides whether transaction-subset enumeration beats Eclat;
// the transaction lengths are only computed (into s) at floors low enough
// for the hash path to be considered at all.
func useHashPath(v *dataset.Vertical, k, minSupport int, s *Scratch) bool {
	if k < 2 || minSupport > hashPathMaxSupport {
		return false
	}
	return subsetEnumerationCost(s.scratchLengths(v), k, subsetBudget) <= subsetBudget
}

// hashMineK enumerates every k-subset of every transaction, counts them in
// the scratch's ItemsetTable, and emits those reaching minSupport in table
// insertion order. emit receives a scratch itemset valid only during the
// call.
func hashMineK(v *dataset.Vertical, k, minSupport int, s *Scratch, emit func(Itemset, int)) {
	// Rebuild horizontal transactions from the vertical layout, packed into
	// the pooled conversion target (transactions shorter than k are still
	// materialized there; they are skipped below).
	d := s.horizontal(v)
	if s.table == nil {
		s.table = NewItemsetTable(k, 0)
	} else {
		s.table.Reset(k)
	}
	counts := s.counts[:0]
	s.ensureDepth(k)
	idx := s.prefix[:k]
	for _, tr := range d.Transactions() {
		if len(tr) < k {
			continue
		}
		var rec func(pos, start int)
		rec = func(pos, start int) {
			if pos == k {
				id, added := s.table.Insert(idx)
				if added {
					counts = append(counts, 0)
				}
				counts[id]++
				return
			}
			for i := start; i <= len(tr)-(k-pos); i++ {
				idx[pos] = tr[i]
				rec(pos+1, i+1)
			}
		}
		rec(0, 0)
	}
	s.counts = counts
	for id := 0; id < s.table.Len(); id++ {
		if int(counts[id]) >= minSupport {
			emit(Itemset(s.table.Items(id)), int(counts[id]))
		}
	}
}

// visitShortcut streams the fixed-k mines that bypass the Eclat DFS on the
// tid-list layout — k = 1, read off the item supports in item order, and the
// low-floor hash path — and reports whether it handled the mine. EclatBits
// always runs the DFS.
func visitShortcut(v *dataset.Vertical, k, minSupport int, algo Algorithm, s *Scratch, emit func(Itemset, int)) bool {
	switch {
	case algo == EclatBits:
		return false
	case k == 1:
		s.ensureDepth(1)
		item := s.prefix[:1]
		for it, l := range v.Tids {
			if len(l) >= minSupport {
				item[0] = uint32(it)
				emit(item, len(l))
			}
		}
		return true
	case useHashPath(v, k, minSupport, s):
		hashMineK(v, k, minSupport, s, emit)
		return true
	}
	return false
}
