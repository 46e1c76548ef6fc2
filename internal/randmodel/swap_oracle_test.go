package randmodel

import (
	"sort"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// SwapRandomizer is the independent test oracle for the production chain:
// a direct, map-per-transaction transcription of the swap step that shares
// no code with swapScratch. The production chain must reproduce its RNG
// consumption, its accept/reject decisions and its final dataset exactly.
type SwapRandomizer struct {
	numItems int
	occTid   []uint32          // occurrence -> transaction id
	occItem  []uint32          // occurrence -> item id
	member   []map[uint32]bool // per transaction: item membership
}

// NewSwapRandomizer initializes the chain at the given dataset.
func NewSwapRandomizer(d *dataset.Dataset) *SwapRandomizer {
	sr := &SwapRandomizer{numItems: d.NumItems()}
	sr.member = make([]map[uint32]bool, d.NumTransactions())
	for tid := 0; tid < d.NumTransactions(); tid++ {
		tr := d.Transaction(tid)
		sr.member[tid] = make(map[uint32]bool, len(tr))
		for _, it := range tr {
			sr.member[tid][it] = true
			sr.occTid = append(sr.occTid, uint32(tid))
			sr.occItem = append(sr.occItem, it)
		}
	}
	return sr
}

// Step proposes one swap; it returns true when the proposal was applied.
func (sr *SwapRandomizer) Step(r *stats.RNG) bool {
	n := len(sr.occTid)
	if n < 2 {
		return false
	}
	a := r.Intn(n)
	b := r.Intn(n)
	if a == b {
		return false
	}
	t1, i1 := sr.occTid[a], sr.occItem[a]
	t2, i2 := sr.occTid[b], sr.occItem[b]
	if t1 == t2 || i1 == i2 {
		return false
	}
	if sr.member[t1][i2] || sr.member[t2][i1] {
		return false
	}
	// Rewire.
	delete(sr.member[t1], i1)
	delete(sr.member[t2], i2)
	sr.member[t1][i2] = true
	sr.member[t2][i1] = true
	sr.occItem[a], sr.occItem[b] = i2, i1
	return true
}

// Run performs the given number of proposals and returns how many applied.
func (sr *SwapRandomizer) Run(proposals int, r *stats.RNG) int {
	applied := 0
	for i := 0; i < proposals; i++ {
		if sr.Step(r) {
			applied++
		}
	}
	return applied
}

// Dataset materializes the current chain state.
func (sr *SwapRandomizer) Dataset() *dataset.Dataset {
	tx := make([][]uint32, len(sr.member))
	for tid, set := range sr.member {
		tr := make([]uint32, 0, len(set))
		for it := range set {
			tr = append(tr, it)
		}
		sort.Slice(tr, func(a, b int) bool { return tr[a] < tr[b] })
		tx[tid] = tr
	}
	return dataset.MustNew(sr.numItems, tx)
}

// oracleGenerate is SwapModel.Generate computed by the oracle: a fresh
// chain of the model's per-replicate length from its base.
func oracleGenerate(m *SwapModel, r *stats.RNG) *dataset.Vertical {
	sr := NewSwapRandomizer(m.Base)
	sr.Run(m.proposals(len(sr.occTid)), r)
	return sr.Dataset().Vertical()
}
