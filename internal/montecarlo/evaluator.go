package montecarlo

import (
	"math/bits"
	"slices"
)

// evaluator computes the empirical Chen-Stein bounds b̂1(s), b̂2(s) from the
// mined collection. At a given s only the itemsets with at least one
// replicate support >= s ("live" itemsets) contribute; the evaluator builds,
// per live itemset, a replicate bitmask for O(Delta/64)-word joint
// exceedance counting, and an inverted item index for overlap enumeration.
//
// One evaluator serves every support level searchCrossing probes, so all of
// its working storage is pooled across evalCapped calls: the live list, the
// flat inverted index and the mask arena are rebuilt in place. A live
// itemset's mask is built the first time the call reads it: the capped
// probe at the floor, where nearly all of W is live, usually stops after a
// handful of terms, so it builds a handful of masks. The galloping search
// evaluates O(log smax) levels, so per-call allocations would multiply
// across the whole search.
type evaluator struct {
	col       *collection
	delta     int
	maskWords int
	// stamp machinery for neighbor deduplication.
	stamp   []int
	stampID int
	// pooled per-call storage.
	lives      []liveSet // live list, rebuilt per call in place
	invOff     []int     // inverted index: item it's live indices are invIdx[invOff[it]:invOff[it+1]]
	invIdx     []int
	masks      [][]uint64 // mask arena in fixed-size chunks, reused across calls
	chunkShift uint       // log2 of the masks per arena chunk
	nmasks     int        // masks built this call
}

// maskChunkWords bounds the size of one mask arena chunk, which holds a
// power of two of masks. A chunked arena never copies the masks it holds as
// it grows, and holds no more than one chunk beyond what the largest call
// built.
const maskChunkWords = 1 << 10

// liveSet is one live itemset at the probed support level: its collection id,
// exceedance probability, and the index of its replicate mask in the arena
// (-1 until maskOf builds it).
type liveSet struct {
	id   int
	p    float64
	mask int
}

func newEvaluator(col *collection, delta int) *evaluator {
	maskWords := (delta + 63) / 64
	return &evaluator{
		col:        col,
		delta:      delta,
		maskWords:  maskWords,
		chunkShift: uint(max(0, bits.Len(uint(maskChunkWords/maskWords))-1)),
		stamp:      make([]int, col.numItemsets()),
		lives:      make([]liveSet, 0, col.numItemsets()),
	}
}

// eval computes b̂1 and b̂2 at support level s, in full.
func (ev *evaluator) eval(s int) BoundPoint {
	bp, _ := ev.evalCapped(s, 0)
	return bp
}

// evalCapped computes b̂1 and b̂2 at support level s.
//
//	b̂1(s) = sum over ordered pairs (X, Y) in W^2 with X ∩ Y != ∅
//	        (including X = Y) of p̂_X(s) p̂_Y(s)
//	b̂2(s) = sum over ordered pairs of DISTINCT overlapping (X, Y) of
//	        p̂_{X,Y}(s)
//
// where p̂_X(s) is the fraction of replicates in which sup(X) >= s and
// p̂_{X,Y}(s) the fraction where both exceed s. Itemsets outside W have
// empirical probability zero, per the paper.
//
// When budget > 0 the accumulation stops as soon as b̂1 + b̂2 exceeds it
// (every term is non-negative, so the partial sum certifies the bound is
// violated without the full O(|live|^2) work) and exceeded = true is
// returned with the partial values. At low support levels the live set can
// run to hundreds of thousands of itemsets, but the partial sum crosses any
// useful budget within a handful of terms — this is what keeps Algorithm 1's
// "is s-tilde already below the threshold?" probe cheap.
func (ev *evaluator) evalCapped(s int, budget float64) (bp BoundPoint, exceeded bool) {
	col := ev.col
	// Live itemsets and their exceedance probabilities.
	lives := ev.lives[:0]
	for id := range col.numItemsets() {
		cnt := 0
		for _, e := range col.entriesOf(id) {
			if int(e.sup) >= s {
				cnt++
			}
		}
		if cnt > 0 {
			lives = append(lives, liveSet{id: id, p: float64(cnt) / float64(ev.delta), mask: -1})
		}
	}
	ev.lives, ev.nmasks = lives, 0
	if len(lives) == 0 {
		return BoundPoint{S: s}, false
	}
	// Inverted index: item -> live indices, ascending, by a counting sort
	// of the live itemsets' items. off[it+2] first counts item it; after
	// the prefix sums off[it+1] is the start of its run, and filling
	// advances it to the run's end, which leaves off[it] at the start.
	off := ev.invOff[:0]
	for _, lv := range lives {
		for _, it := range col.itemsOf(lv.id) {
			for int(it)+2 >= len(off) {
				off = append(off, 0)
			}
			off[it+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	idx := slices.Grow(ev.invIdx[:0], off[len(off)-1])[:off[len(off)-1]]
	for li, lv := range lives {
		for _, it := range col.itemsOf(lv.id) {
			idx[off[it+1]] = li
			off[it+1]++
		}
	}
	ev.invOff, ev.invIdx = off, idx
	var b1, b2 float64
	for li, lv := range lives {
		ev.stampID++
		// X overlaps itself: include the diagonal in b1.
		neighborP := 0.0
		var mask []uint64 // li's mask, built on first use
		for _, it := range col.itemsOf(lv.id) {
			for _, oj := range idx[off[it]:off[it+1]] {
				if ev.stamp[oj] == ev.stampID {
					continue
				}
				ev.stamp[oj] = ev.stampID
				other := lives[oj]
				neighborP += other.p
				if oj != li {
					if mask == nil {
						mask = ev.maskOf(li, s)
					}
					b2 += float64(andCount(mask, ev.maskOf(oj, s))) / float64(ev.delta)
				}
			}
		}
		b1 += lv.p * neighborP
		if budget > 0 && b1+b2 > budget {
			return BoundPoint{S: s, B1: b1, B2: b2, Partial: true}, true
		}
	}
	return BoundPoint{S: s, B1: b1, B2: b2}, false
}

// maskOf returns live itemset li's replicate mask at support level s (bit r
// set when replicate r's support reached s), building it in the arena the
// first time this call asks for it.
func (ev *evaluator) maskOf(li, s int) []uint64 {
	lv := &ev.lives[li]
	if lv.mask >= 0 {
		return ev.maskAt(lv.mask)
	}
	lv.mask = ev.nmasks
	ev.nmasks++
	if lv.mask>>ev.chunkShift == len(ev.masks) {
		ev.masks = append(ev.masks, make([]uint64, ev.maskWords<<ev.chunkShift))
	}
	mask := ev.maskAt(lv.mask)
	clear(mask)
	for _, e := range ev.col.entriesOf(lv.id) {
		if int(e.sup) >= s {
			mask[e.rep/64] |= 1 << (uint(e.rep) % 64)
		}
	}
	return mask
}

// maskAt returns the arena slot of mask i.
func (ev *evaluator) maskAt(i int) []uint64 {
	off := (i & (1<<ev.chunkShift - 1)) * ev.maskWords
	return ev.masks[i>>ev.chunkShift][off : off+ev.maskWords]
}

func andCount(a, b []uint64) int {
	c := 0
	for i := range a {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}
