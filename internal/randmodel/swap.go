package randmodel

import (
	"fmt"
	"math"
	"slices"
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
// proposals (saturated at math.MaxInt) starting from d and returns the
// randomized dataset. Gionis et al. report mixing after a small constant
// times the number of ones; 4-10 proposals per occurrence is customary.
// Zero (or negative) proposals per occurrence runs no chain: the result
// equals d and r is not drawn from.
func SwapRandomize(d *dataset.Dataset, proposalsPerOccurrence int, r *stats.RNG) *dataset.Dataset {
	b := newSwapBase(d)
	sc := &swapScratch{}
	sc.reset(b)
	sc.run(b, chainLength(proposalsPerOccurrence, len(b.occTid)), r)
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

// proposals returns the per-replicate chain length for occ occurrences,
// saturated at math.MaxInt (CheckChainLength reports that case).
func (m *SwapModel) proposals(occ int) int {
	return chainLength(m.proposalsPerOccurrence(), occ)
}

// proposalsPerOccurrence returns ProposalsPerOccurrence with its default.
func (m *SwapModel) proposalsPerOccurrence() int {
	if m.ProposalsPerOccurrence <= 0 {
		return DefaultProposalsPerOccurrence
	}
	return m.ProposalsPerOccurrence
}

// CheckChainLength reports an error when the per-replicate chain length,
// proposals per occurrence times the base's number of occurrences, exceeds
// math.MaxInt. Generation saturates such a length rather than wrapping it
// to a short (or empty) chain, but a chain that long never ends, so callers
// that take the length from user input reject it up front.
func (m *SwapModel) CheckChainLength() error {
	ppo, occ := m.proposalsPerOccurrence(), numOccurrences(m.Base)
	if occ > 0 && ppo > math.MaxInt/occ {
		return fmt.Errorf("swap chain length of %d proposals per occurrence over %d occurrences exceeds %d proposals", ppo, occ, math.MaxInt)
	}
	return nil
}

// chainLength returns perOccurrence * occ proposals, saturated at
// math.MaxInt, and zero when perOccurrence is not positive.
func chainLength(perOccurrence, occ int) int {
	if perOccurrence <= 0 {
		return 0
	}
	if occ > math.MaxInt/perOccurrence {
		return math.MaxInt
	}
	return perOccurrence * occ
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
	total := numOccurrences(d)
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

// numOccurrences returns the number of ones in d's transaction matrix.
func numOccurrences(d *dataset.Dataset) int {
	total := 0
	for tid := 0; tid < d.NumTransactions(); tid++ {
		total += len(d.Transaction(tid))
	}
	return total
}

// swapScratch is one worker's mutable chain state: the current item of every
// occurrence slot, reset from the base with one bulk copy per replicate, and
// one 64-bit item signature per transaction. Transaction t's current item
// set is exactly occItem[txOff[t]:txOff[t+1]] (in no particular order once
// swaps apply), and an accepted swap rewrites two slots.
//
// sig[t] is a superset bitmask of t's current items, one bit per item
// (sigBit): the invariant is sig[t] ⊇ sigBit(x) for every item x in t. Most
// membership tests on sparse data ask about an absent item, and a clear bit
// proves absence without touching the slot range. The invariant holds at
// reset (every signature is exact), an accepted swap ORs each transaction's
// incoming item into its signature, and a scan that finds the item absent
// overwrites the signature with the exact one of the items it just read, so
// the bits of items swapped out are dropped there and nowhere else. Since
// the signature only ever short-cuts a test whose answer is "absent", every
// membership answer, accept/reject decision and RNG draw is the scan's.
type swapScratch struct {
	occItem []uint32 // slot -> item id (chain state)
	sig     []uint64 // transaction -> superset signature of its items
}

// sigBit is item x's signature bit: the top six bits of a multiplicative
// (Fibonacci) hash of x, so nearby item ids spread over the word.
func sigBit(x uint32) uint64 { return 1 << ((x * 0x9e3779b9) >> 26) }

// reset restores the scratch to the chain-start state with exact signatures.
func (sc *swapScratch) reset(b *swapBase) {
	sc.occItem = append(sc.occItem[:0], b.occItem...)
	sc.sig = slices.Grow(sc.sig[:0], b.numTx)[:b.numTx]
	for t := range sc.sig {
		var s uint64
		for _, it := range sc.occItem[b.txOff[t]:b.txOff[t+1]] {
			s |= sigBit(it)
		}
		sc.sig[t] = s
	}
}

// contains reports whether transaction t currently holds item x: "no" from
// the signature alone when x's bit is clear, otherwise by a linear scan of
// t's slot range. A scan that misses leaves t's signature exact.
func (sc *swapScratch) contains(b *swapBase, t uint32, x uint32) bool {
	if sc.sig[t]&sigBit(x) == 0 {
		return false
	}
	var s uint64
	for _, it := range sc.occItem[b.txOff[t]:b.txOff[t+1]] {
		if it == x {
			return true
		}
		s |= sigBit(it)
	}
	sc.sig[t] = s
	return false
}

// run executes the Markov chain: two Intn(|occurrences|) draws per proposal,
// taken from an IndexBlock (none when fewer than two occurrences exist),
// rejecting same-slot, same-transaction, same-item and already-present
// proposals.
func (sc *swapScratch) run(b *swapBase, proposals int, r *stats.RNG) {
	n := len(b.occTid)
	if n < 2 {
		return
	}
	var draws stats.IndexBlock
	draws.Reset(r, n)
	for p := 0; p < proposals; p++ {
		a := draws.Next()
		c := draws.Next()
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
		sc.sig[t1] |= sigBit(i2)
		sc.sig[t2] |= sigBit(i1)
	}
	draws.Release()
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
