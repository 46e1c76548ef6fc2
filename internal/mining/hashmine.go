package mining

import (
	"math/bits"

	"sigfim/internal/dataset"
)

// Low-threshold mining path. For sparse datasets (short transactions) the
// k-itemsets with support >= 1 are exactly the k-subsets occurring inside
// transactions, so enumerating each transaction's C(len, k) subsets finds
// them all in one scan. useHashPath takes it at low floors when that is no
// more work than Eclat's counting kernel does at its first level alone,
// walking every co-occurring pair: at k >= 3 short transactions (null
// replicates) keep the hash path, while a few long ones (planted blocks),
// whose C(len, k) explodes, go to the kernel.
//
// The path counts by sorting rather than in a hash table. Every subset
// occurrence becomes one word packing the subset's ranks above its
// occurrence index. Above floor 1 a small counter sketch first drops the
// words of subsets that cannot reach the floor (dropRare). A stable radix
// sort on the ranks then groups equal subsets into runs whose length is the
// support and whose first word is the first occurrence. Emission replays
// the frequent runs in first-occurrence order over the transaction scan:
// the insertion order of a hash table counting the same scan,
// deterministic and independent of memory layout.

// subsetBudget caps the per-transaction enumeration volume (and with it the
// sort buffers) before falling back to Eclat.
const subsetBudget = 3_000_000

// hashPathMaxSupport bounds the thresholds for which the hash path is even
// considered; at higher thresholds Eclat's pruning works fine.
const hashPathMaxSupport = 8

// lengthHistogram recovers the per-transaction lengths from the vertical
// layout in O(total occurrences) and returns them as a histogram (hist[n]
// transactions have n items) in pooled buffers, together with sum C(len, 2)
// and the number of items whose support reaches minSupport.
func (s *Scratch) lengthHistogram(v *dataset.Vertical, minSupport int) (hist []int64, pairs int64, frequent int) {
	lens := grow(s.lens, v.NumTransactions)
	clear(lens)
	s.lens = lens
	for _, l := range v.Tids {
		if len(l) >= minSupport {
			frequent++
		}
		for _, tid := range l {
			lens[tid]++
		}
	}
	hist = s.lenHist[:0]
	for _, n := range lens {
		for len(hist) <= int(n) {
			hist = append(hist, 0)
		}
		hist[n]++
	}
	s.lenHist = hist
	for n, c := range hist {
		pairs += c * int64(n*(n-1)/2)
	}
	return hist, pairs, frequent
}

// subsetEnumerationCost returns sum C(n, k) * hist[n], the number of
// k-subsets of transactions distributed by the length histogram hist,
// capped at limit+1 once it exceeds the limit.
func subsetEnumerationCost(hist []int64, k int, limit int64) int64 {
	var total int64
	for n := k; n < len(hist); n++ {
		if hist[n] == 0 {
			continue
		}
		// C(n, k) = C(n, n-k) by its shorter product, whose partial
		// products C(n, i) only grow, so capping them is exact.
		c := int64(1)
		for i := 0; i < min(k, n-k); i++ {
			c = c * int64(n-i) / int64(i+1)
			if c > limit {
				return limit + 1
			}
		}
		if hist[n] > (limit-total)/c {
			return limit + 1
		}
		total += hist[n] * c
	}
	return total
}

// subsetWordsFit reports whether the counter's packed words fit in 64 bits:
// k ranks of bits.Len(m-1) bits each (m frequent items) above an
// occurrence index below occurrences.
func subsetWordsFit(k, m int, occurrences int64) bool {
	return k*bits.Len(uint(max(m, 1)-1))+bits.Len64(uint64(occurrences)) <= 64
}

// useHashPath reports floor <= hashPathMaxSupport, sum C(len, k) <=
// min(subsetBudget, sum C(len, 2)), and that the sort counter's words fit;
// the lengths are only computed (into s) at floors low enough for the hash
// path to be considered at all.
func useHashPath(v *dataset.Vertical, k, minSupport int, s *Scratch) bool {
	if k < 2 || minSupport > hashPathMaxSupport {
		return false
	}
	hist, pairs, m := s.lengthHistogram(v, minSupport)
	limit := min(subsetBudget, pairs)
	cost := subsetEnumerationCost(hist, k, limit)
	return cost <= limit && subsetWordsFit(k, m, cost)
}

// subsetMineK counts every k-subset of every transaction's frequent items
// by sorting and emits those reaching minSupport in first-occurrence
// order. useHashPath must hold, so the packed words fit. emit receives a
// scratch itemset valid only during the call.
func subsetMineK(v *dataset.Vertical, k, minSupport int, s *Scratch, emit func(Itemset, int)) {
	// Ranking the frequent items in id order keeps each transaction's rank
	// run in item order, so its subsets come out in the order the whole
	// transaction's would, minus those holding an infrequent item (which
	// can never reach the floor).
	items := s.items[:0]
	for it, l := range v.Tids {
		if len(l) >= minSupport {
			items = append(items, uint32(it))
		}
	}
	s.items = items
	if len(items) < k {
		return
	}
	s.rankIndex(v, items)
	s.ensureDepth(k)
	b := uint(bits.Len(uint(len(items) - 1)))
	keyBits := uint(k) * b
	shift := 64 - keyBits
	words := s.words[:0]
	off, ranks := s.idxOff, s.idxRks
	for t, start := range off[:v.NumTransactions] {
		end := off[t+1]
		switch {
		case end-start < k:
		case k == 3:
			words = appendTriples(words, ranks[start:end], b, shift)
		default:
			words = appendSubsets(words, ranks[start:end], s.prefix[:k], b, shift)
		}
	}
	s.words = words
	if minSupport > 1 {
		words = s.dropRare(words, minSupport, shift)
	}
	s.wordsTmp = grow(s.wordsTmp, len(words))
	sorted, free := s.radixSort(words, s.wordsTmp, shift)

	// Each run of equal keys is one itemset. A frequent run's first word is
	// overwritten with its key and support, and the run is recorded as its
	// first occurrence above that word's position.
	idxMask := uint64(1)<<shift - 1
	runs := s.runs[:0]
	for i := 0; i < len(sorted); {
		key := sorted[i] >> shift
		j := i + 1
		for j < len(sorted) && sorted[j]>>shift == key {
			j++
		}
		if j-i >= minSupport {
			runs = append(runs, (sorted[i]&idxMask)<<32|uint64(i))
			sorted[i] = key<<shift | uint64(j-i)
		}
		i = j
	}
	s.runs = runs
	runs, _ = s.radixSort(runs, free[:len(runs)], 32)

	rankMask := uint64(1)<<b - 1
	out := s.sorted[:k]
	for _, run := range runs {
		w := sorted[uint32(run)]
		key := w >> shift
		for d := k - 1; d >= 0; d-- {
			out[d] = items[key&rankMask]
			key >>= b
		}
		emit(out, int(w&idxMask))
	}
}

// dropRare compacts words, in order, to those whose subset may reach
// minSupport. Each subset is counted in a counter picked by a
// multiplicative hash of its key, about two counters per word; a word
// survives when its counter reaches the floor, so every word of a frequent
// subset survives, together with the few sharing a counter with others.
// The counters saturate at 255, far above the hash path's floors. On null
// replicates nearly every subset occurs once, so most words drop before
// the sort.
func (s *Scratch) dropRare(words []uint64, minSupport int, shift uint) []uint64 {
	size := 1 << bits.Len(uint(2*len(words)))
	cnt := grow(s.sketch, size)
	clear(cnt)
	s.sketch = cnt
	hs := uint(65 - bits.Len(uint(size)))
	for _, w := range words {
		if h := (w >> shift) * 0x9e3779b97f4a7c15 >> hs; cnt[h] < 255 {
			cnt[h]++
		}
	}
	kept := words[:0]
	for _, w := range words {
		if int(cnt[(w>>shift)*0x9e3779b97f4a7c15>>hs]) >= minSupport {
			kept = append(kept, w)
		}
	}
	return kept
}

// appendTriples appends the packed words of r's 3-subsets, in
// lexicographic position order, to words; a word's occurrence index is its
// position in words.
func appendTriples(words []uint64, r []uint32, b, shift uint) []uint64 {
	n := len(r)
	for i := 0; i < n-2; i++ {
		ki := uint64(r[i]) << (2 * b)
		for j := i + 1; j < n-1; j++ {
			kij := ki | uint64(r[j])<<b
			for _, c := range r[j+1:] {
				words = append(words, (kij|uint64(c))<<shift|uint64(len(words)))
			}
		}
	}
	return words
}

// appendSubsets is appendTriples for any k = len(pos) <= len(r); pos holds
// the positions of the current subset.
func appendSubsets(words []uint64, r []uint32, pos []uint32, b, shift uint) []uint64 {
	k, n := len(pos), len(r)
	for d := range pos {
		pos[d] = uint32(d)
	}
	for {
		var key uint64
		for _, p := range pos {
			key = key<<b | uint64(r[p])
		}
		words = append(words, key<<shift|uint64(len(words)))
		d := k - 1
		for d >= 0 && int(pos[d]) == n-k+d {
			d--
		}
		if d < 0 {
			return words
		}
		pos[d]++
		for e := d + 1; e < k; e++ {
			pos[e] = pos[e-1] + 1
		}
	}
}

// radixDigit caps the bits one radix pass sorts on: 2^11 bucket counters
// stay in L1.
const radixDigit = 11

// radixSort sorts a stably by each word's bits from lo up (w >> lo), one
// least-significant digit per pass, with tmp (len(tmp) == len(a)) as the
// other buffer. It returns the sorted slice and the one left free, which
// are a and tmp in some order. Passes whose digit is equal across all
// words are skipped.
func (s *Scratch) radixSort(a, tmp []uint64, lo uint) (sorted, free []uint64) {
	var top uint64
	for _, w := range a {
		top |= w >> lo
	}
	width := uint(bits.Len64(top))
	if width == 0 {
		return a, tmp
	}
	passes := int((width + radixDigit - 1) / radixDigit)
	digit := (width + uint(passes) - 1) / uint(passes)
	nb := 1 << digit
	mask := uint64(nb - 1)
	counts := grow(s.buckets, passes*nb)
	clear(counts)
	s.buckets = counts
	for _, w := range a {
		w >>= lo
		for p := range passes {
			counts[p*nb+int(w&mask)]++
			w >>= digit
		}
	}
	for p := range passes {
		c := counts[p*nb : (p+1)*nb]
		sh := lo + uint(p)*digit
		if c[(a[0]>>sh)&mask] == len(a) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, w := range a {
			d := (w >> sh) & mask
			tmp[c[d]] = w
			c[d]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
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
		subsetMineK(v, k, minSupport, s, emit)
		return true
	}
	return false
}
