package randmodel

import (
	"sync"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// Swap randomization (Gionis, Mannila, Mielikäinen, Tsaparas, KDD 2006):
// a Markov chain over 0/1 matrices with fixed row and column sums. One step
// picks two occurrences (t1, i1), (t2, i2) with i1 ≠ i2, t1 ≠ t2,
// i2 ∉ t1, i1 ∉ t2 and rewires them to (t1, i2), (t2, i1). Every state
// reachable this way has exactly the same item supports and transaction
// lengths as the input; running the chain long enough approximates a uniform
// draw from that state space. The paper discusses this as the alternative
// null model of [10]; we ship it as a first-class null for the significance
// pipeline alongside the independence model.

// SwapRandomize runs the chain for proposalsPerOccurrence * |occurrences|
// proposals starting from d and returns the randomized dataset. Gionis et
// al. report mixing after a small constant times the number of ones; 4-10
// proposals per occurrence is customary. Zero (or negative) proposals per
// occurrence runs no chain: the result equals d and r is not drawn from.
func SwapRandomize(d *dataset.Dataset, proposalsPerOccurrence int, r *stats.RNG) *dataset.Dataset {
	b := newSwapBase(d)
	sc := &swapScratch{}
	sc.reset(b)
	sc.run(b, proposalsPerOccurrence*len(b.occTid), r)
	v := &dataset.Vertical{}
	sc.materialize(b, v)
	return v.Horizontal()
}

// DefaultProposalsPerOccurrence is SwapModel's chain length per occurrence
// when ProposalsPerOccurrence is zero; Gionis et al. report mixing after a
// small constant.
const DefaultProposalsPerOccurrence = 8

// SwapModel adapts swap randomization to the Model interface: every Generate
// (or GenerateInto) re-runs the chain from the reference dataset with a fresh
// stream, so replicates are independent approximate draws from the fixed-
// margin state space. The per-replicate chain length is the model's burn-in:
// every replicate pays it in full because the chain restarts from Base.
//
// SwapModel implements InPlaceGenerator through a shared immutable snapshot
// of the chain-start state (built once) and a pool of per-worker chain
// scratches, so the Monte Carlo replicate loop generates swap replicates
// without per-replicate allocation. Use it by pointer (&SwapModel{...}):
// the methods have pointer receivers because the model carries the shared
// once-guarded snapshot and the scratch pool, and must not be copied.
type SwapModel struct {
	Base *dataset.Dataset
	// ProposalsPerOccurrence controls chain length relative to the number of
	// ones in the matrix (DefaultProposalsPerOccurrence when zero): each
	// replicate runs ProposalsPerOccurrence * |occurrences| proposals.
	ProposalsPerOccurrence int
	// Proposals, when positive, fixes the absolute number of proposals per
	// replicate and overrides ProposalsPerOccurrence.
	Proposals int

	prepOnce sync.Once
	prep     *swapBase
	pool     sync.Pool // *swapScratch
}

// NumTransactions returns t.
func (m *SwapModel) NumTransactions() int { return m.Base.NumTransactions() }

// NumItems returns n.
func (m *SwapModel) NumItems() int { return m.Base.NumItems() }

// ItemFrequencies returns the base dataset's frequencies, which every chain
// state shares (swaps preserve column margins exactly).
func (m *SwapModel) ItemFrequencies() []float64 { return m.Base.Frequencies() }

// proposals returns the per-replicate chain length for occ occurrences.
func (m *SwapModel) proposals(occ int) int {
	if m.Proposals > 0 {
		return m.Proposals
	}
	ppo := m.ProposalsPerOccurrence
	if ppo <= 0 {
		ppo = DefaultProposalsPerOccurrence
	}
	return ppo * occ
}

// Generate runs a fresh chain and returns the vertical layout in a newly
// allocated Vertical; it is GenerateInto on a fresh target.
func (m *SwapModel) Generate(r *stats.RNG) *dataset.Vertical {
	v := &dataset.Vertical{}
	m.GenerateInto(r, v)
	return v
}

// GenerateInto runs a fresh chain in pooled scratch space and materializes
// the result into v (reshaped via Reuse, per-item column backing arrays
// retained).
func (m *SwapModel) GenerateInto(r *stats.RNG, v *dataset.Vertical) {
	b := m.prepare()
	sc, _ := m.pool.Get().(*swapScratch)
	if sc == nil {
		sc = &swapScratch{}
	}
	sc.reset(b)
	sc.run(b, m.proposals(len(b.occTid)), r)
	sc.materialize(b, v)
	m.pool.Put(sc)
}

// prepare builds (once) the immutable chain-start snapshot shared by every
// worker's scratch.
func (m *SwapModel) prepare() *swapBase {
	m.prepOnce.Do(func() { m.prep = newSwapBase(m.Base) })
	return m.prep
}

// swapBase is the immutable chain-start state. Occurrences are enumerated
// in (tid, ascending item) order, so transaction t owns the contiguous slot
// range [txOff[t], txOff[t+1]) and slot j starts at item occItem[j]. A swap
// rewrites the items of two slots and never moves an occurrence to another
// transaction, so occTid and txOff hold for every chain state.
type swapBase struct {
	numItems int
	numTx    int
	occTid   []uint32 // slot -> transaction id (non-decreasing in the slot)
	occItem  []uint32 // slot -> item id at the chain start
	txOff    []int    // transaction t owns slots [txOff[t], txOff[t+1])
}

// newSwapBase snapshots d as the chain-start state.
func newSwapBase(d *dataset.Dataset) *swapBase {
	t := d.NumTransactions()
	total := 0
	for tid := 0; tid < t; tid++ {
		total += len(d.Transaction(tid))
	}
	b := &swapBase{
		numItems: d.NumItems(),
		numTx:    t,
		occTid:   make([]uint32, 0, total),
		occItem:  make([]uint32, 0, total),
		txOff:    make([]int, t+1),
	}
	for tid := 0; tid < t; tid++ {
		tr := d.Transaction(tid)
		b.txOff[tid] = len(b.occItem)
		b.occItem = append(b.occItem, tr...)
		for range tr {
			b.occTid = append(b.occTid, uint32(tid))
		}
	}
	b.txOff[t] = len(b.occItem)
	return b
}

// swapScratch is one worker's mutable chain state: the current item of every
// occurrence slot, reset from the base with one bulk copy per replicate.
// Transaction t's current item set is exactly occItem[txOff[t]:txOff[t+1]]
// (in no particular order once swaps apply), so membership is a linear scan
// of that short range and an accepted swap rewrites two slots.
type swapScratch struct {
	occItem []uint32 // slot -> item id (chain state)
}

// reset restores the scratch to the chain-start state.
func (sc *swapScratch) reset(b *swapBase) {
	sc.occItem = append(sc.occItem[:0], b.occItem...)
}

// contains reports whether transaction t currently holds item x.
func (sc *swapScratch) contains(b *swapBase, t uint32, x uint32) bool {
	for _, it := range sc.occItem[b.txOff[t]:b.txOff[t+1]] {
		if it == x {
			return true
		}
	}
	return false
}

// run executes the Markov chain: two Intn draws per proposal (none when
// fewer than two occurrences exist), rejecting same-slot, same-transaction,
// same-item and already-present proposals.
func (sc *swapScratch) run(b *swapBase, proposals int, r *stats.RNG) {
	n := len(b.occTid)
	if n < 2 {
		return
	}
	for p := 0; p < proposals; p++ {
		a := r.Intn(n)
		c := r.Intn(n)
		if a == c {
			continue
		}
		t1, i1 := b.occTid[a], sc.occItem[a]
		t2, i2 := b.occTid[c], sc.occItem[c]
		if t1 == t2 || i1 == i2 {
			continue
		}
		if sc.contains(b, t1, i2) || sc.contains(b, t2, i1) {
			continue
		}
		sc.occItem[a], sc.occItem[c] = i2, i1
	}
}

// materialize writes the current chain state into v in vertical layout.
// Slots are visited in order, so each item's tids arrive non-decreasing —
// strictly increasing, since a transaction holds an item at most once —
// and every column comes out sorted without a sort.
func (sc *swapScratch) materialize(b *swapBase, v *dataset.Vertical) {
	v.Reuse(b.numTx, b.numItems)
	for j, it := range sc.occItem {
		v.Tids[it] = append(v.Tids[it], b.occTid[j])
	}
}
