package mining

import (
	"container/heap"

	"sigfim/internal/dataset"
)

// Maximal frequent itemsets and top-K mining: the standard condensed
// representations alongside closed itemsets. A frequent itemset is maximal
// when no proper superset is frequent; the maximal family is the minimal
// description of the frequent border.

// MaximalAll returns every maximal frequent itemset with support >=
// minSupport (any size). Derived from the closed family: an itemset is
// maximal iff it is closed and no other closed itemset strictly contains it.
func MaximalAll(v *dataset.Vertical, minSupport int) []Result {
	closed := ClosedAll(v, minSupport)
	// Index closed itemsets by length descending; a closed set is maximal
	// iff no longer closed set contains it.
	var out []Result
	for i, c := range closed {
		maximal := true
		for j, o := range closed {
			if i == j || len(o.Items) <= len(c.Items) {
				continue
			}
			if c.Items.SubsetOf(o.Items) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	SortResults(out)
	return out
}

// resultHeap is a min-heap on support for top-K selection.
type resultHeap []Result

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return h[i].Support < h[j].Support }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopK returns the K size-k itemsets with the largest supports (fewer if
// the dataset has fewer), descending by support. The search threshold rises
// as the heap fills, so the underlying DFS prunes like a normal mining run
// at the (unknown in advance) K-th support level.
func TopK(v *dataset.Vertical, k, K int) []Result {
	if K <= 0 {
		return nil
	}
	h := &resultHeap{}
	heap.Init(h)
	// Two-phase: first find the K-th largest support via the histogram
	// (cheap: counting at threshold 1 may be expensive on dense data, so
	// start from a high guess and halve).
	threshold := v.MaxItemSupport()
	if threshold < 1 {
		return nil
	}
	s := NewScratch()
	for threshold > 1 {
		if CumulativeQ(SupportHistogramAlgoScratch(v, k, threshold, 1, Auto, s))[threshold] >= int64(K) {
			break
		}
		threshold /= 2
	}
	VisitKAlgoScratch(v, k, threshold, 1, Auto, s, func(items Itemset, sup int) {
		if h.Len() < K {
			heap.Push(h, Result{Items: items.Clone(), Support: sup})
			return
		}
		if sup > (*h)[0].Support {
			(*h)[0] = Result{Items: items.Clone(), Support: sup}
			heap.Fix(h, 0)
		}
	})
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	SortResults(out)
	return out
}
