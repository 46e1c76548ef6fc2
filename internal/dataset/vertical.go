package dataset

import (
	"fmt"
	"sort"

	"sigfim/internal/bitset"
)

// Vertical is the item-major layout: one sorted transaction-id list per item.
// The random dataset generator produces this layout directly (it places each
// item's occurrences independently), and the Eclat miner consumes it.
type Vertical struct {
	NumTransactions int
	Tids            []bitset.TidList

	// Arena is pooled tid storage for a generator that lays every column
	// out in one array (randmodel.IndependentModel.GenerateInto): its
	// columns are capacity-capped subslices of it, back to back. Reuse
	// keeps it, so a worker's replicates share one allocation. Only the
	// generator that set it reads it.
	Arena []uint32
}

// NewVertical validates and wraps per-item tid lists. Lists must be strictly
// increasing with ids below numTransactions.
func NewVertical(numTransactions int, tids []bitset.TidList) (*Vertical, error) {
	for item, l := range tids {
		for i, tid := range l {
			if int(tid) >= numTransactions {
				return nil, fmt.Errorf("dataset: item %d has tid %d >= t=%d", item, tid, numTransactions)
			}
			if i > 0 && l[i-1] >= tid {
				return nil, fmt.Errorf("dataset: item %d tid list not strictly increasing at %d", item, i)
			}
		}
	}
	return &Vertical{NumTransactions: numTransactions, Tids: tids}, nil
}

// NumItems returns the item universe size.
func (v *Vertical) NumItems() int { return len(v.Tids) }

// Reuse reshapes v to numTransactions transactions over numItems items with
// every tid list empty, preserving the per-item backing arrays and Arena so
// generators can refill the columns without reallocating. The Monte Carlo replicate
// engine calls this once per replicate on a per-worker Vertical.
func (v *Vertical) Reuse(numTransactions, numItems int) {
	v.NumTransactions = numTransactions
	if cap(v.Tids) < numItems {
		tids := make([]bitset.TidList, numItems)
		copy(tids, v.Tids)
		v.Tids = tids
	} else {
		v.Tids = v.Tids[:numItems]
	}
	for i := range v.Tids {
		v.Tids[i] = v.Tids[i][:0]
	}
}

// ItemSupports returns the support of every item.
func (v *Vertical) ItemSupports() []int {
	s := make([]int, len(v.Tids))
	for i, l := range v.Tids {
		s[i] = len(l)
	}
	return s
}

// Frequencies returns f_i = n(i)/t.
func (v *Vertical) Frequencies() []float64 {
	f := make([]float64, len(v.Tids))
	if v.NumTransactions == 0 {
		return f
	}
	t := float64(v.NumTransactions)
	for i, l := range v.Tids {
		f[i] = float64(len(l)) / t
	}
	return f
}

// MaxItemSupport returns the largest single-item support.
func (v *Vertical) MaxItemSupport() int {
	max := 0
	for _, l := range v.Tids {
		if len(l) > max {
			max = len(l)
		}
	}
	return max
}

// Support intersects the tid lists of the itemset's items, cheapest-first.
func (v *Vertical) Support(itemset []uint32) int {
	switch len(itemset) {
	case 0:
		return v.NumTransactions
	case 1:
		return len(v.Tids[itemset[0]])
	}
	// Intersect in increasing order of list length so intermediate results
	// shrink as fast as possible.
	order := append([]uint32(nil), itemset...)
	sort.Slice(order, func(a, b int) bool {
		return len(v.Tids[order[a]]) < len(v.Tids[order[b]])
	})
	if len(v.Tids[order[0]]) == 0 {
		return 0
	}
	if len(order) == 2 {
		return bitset.IntersectCount(v.Tids[order[0]], v.Tids[order[1]])
	}
	acc := bitset.Intersect(v.Tids[order[0]], v.Tids[order[1]])
	for _, it := range order[2:] {
		if len(acc) == 0 {
			return 0
		}
		acc = bitset.IntersectInto(acc, v.Tids[it])
	}
	return len(acc)
}

// TidListOf returns the transactions containing every item of the itemset.
func (v *Vertical) TidListOf(itemset []uint32) bitset.TidList {
	switch len(itemset) {
	case 0:
		all := make(bitset.TidList, v.NumTransactions)
		for i := range all {
			all[i] = uint32(i)
		}
		return all
	case 1:
		return append(bitset.TidList(nil), v.Tids[itemset[0]]...)
	}
	acc := append(bitset.TidList(nil), v.Tids[itemset[0]]...)
	for _, it := range itemset[1:] {
		acc = bitset.IntersectInto(acc, v.Tids[it])
	}
	return acc
}

// Horizontal converts back to transaction-major layout.
func (v *Vertical) Horizontal() *Dataset {
	d := &Dataset{}
	v.HorizontalInto(d)
	return d
}

// HorizontalInto rebuilds the transaction-major layout into d, reusing d's
// transaction headers, item arena, and support cache. Horizontal miners in
// the Monte Carlo replicate loop (Apriori, FP-Growth) convert every
// replicate; pooling the conversion target removes one full dataset copy of
// allocation per replicate. d must not be in use by a previous conversion.
func (v *Vertical) HorizontalInto(d *Dataset) {
	t := v.NumTransactions
	d.numItems = len(v.Tids)
	if cap(d.supports) < len(v.Tids) {
		d.supports = make([]int, len(v.Tids))
	} else {
		d.supports = d.supports[:len(v.Tids)]
	}
	total := 0
	for i, l := range v.Tids {
		d.supports[i] = len(l)
		total += len(l)
	}
	if cap(d.lens) < t {
		d.lens = make([]int, t)
	} else {
		d.lens = d.lens[:t]
		for i := range d.lens {
			d.lens[i] = 0
		}
	}
	for _, l := range v.Tids {
		for _, tid := range l {
			d.lens[tid]++
		}
	}
	if cap(d.arena) < total {
		d.arena = make([]uint32, total)
	} else {
		d.arena = d.arena[:total]
	}
	if cap(d.tx) < t {
		d.tx = make([][]uint32, t)
	} else {
		d.tx = d.tx[:t]
	}
	off := 0
	for tid := 0; tid < t; tid++ {
		d.tx[tid] = d.arena[off : off : off+d.lens[tid]]
		off += d.lens[tid]
	}
	// Visiting items in ascending order keeps each transaction sorted.
	for item, l := range v.Tids {
		for _, tid := range l {
			d.tx[tid] = append(d.tx[tid], uint32(item))
		}
	}
}
