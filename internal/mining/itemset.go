// Package mining implements the frequent itemset mining engine under the
// significance methodology: Auto (parallel Eclat over tid lists with a
// low-floor subset-sorting path), the serial reference miners Apriori
// (level-wise, candidate prefix trie), bitset Eclat and FP-Growth
// (conditional pattern trees), fixed-size-k mining (the primitive the
// paper's procedures consume), support histograms for multi-threshold
// counting, and closed-itemset filtering.
//
// There is no Go frequent-itemset-mining library to lean on, so the package
// is self-contained; all algorithms agree with each other and with brute
// force enumeration (see the cross-agreement property tests).
package mining

import (
	"encoding/binary"
	"sort"
)

// Itemset is a sorted, duplicate-free list of item ids.
type Itemset []uint32

// Key encodes the itemset as a compact string for use as a map key.
func (s Itemset) Key() string {
	buf := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	return string(buf)
}

// KeyToItemset decodes a Key back into an Itemset.
func KeyToItemset(key string) Itemset {
	b := []byte(key)
	out := make(Itemset, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// NewItemset copies, sorts, and deduplicates the given items.
func NewItemset(items ...uint32) Itemset {
	c := append([]uint32(nil), items...)
	sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
	w := 0
	for r := 0; r < len(c); r++ {
		if w == 0 || c[w-1] != c[r] {
			c[w] = c[r]
			w++
		}
	}
	return Itemset(c[:w])
}

// Equal reports element-wise equality.
func (s Itemset) Equal(o Itemset) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Contains reports whether item is a member (binary search).
func (s Itemset) Contains(item uint32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < item {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == item
}

// SubsetOf reports whether every element of s is in o (both sorted).
func (s Itemset) SubsetOf(o Itemset) bool {
	if len(s) > len(o) {
		return false
	}
	j := 0
	for _, v := range s {
		for j < len(o) && o[j] < v {
			j++
		}
		if j >= len(o) || o[j] != v {
			return false
		}
		j++
	}
	return true
}

// Intersects reports whether s and o share at least one item. The paper's
// Chen-Stein neighborhoods I(X) are exactly the equal-size itemsets that
// intersect X.
func (s Itemset) Intersects(o Itemset) bool {
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			i++
		case s[i] > o[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Union returns the sorted union of s and o.
func (s Itemset) Union(o Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, o[j:]...)
	return out
}

// Clone returns a copy.
func (s Itemset) Clone() Itemset { return append(Itemset(nil), s...) }

// Result pairs an itemset with its observed support.
type Result struct {
	Items   Itemset
	Support int
}

// SortResults orders results by descending support, breaking ties
// lexicographically by items; deterministic output for tests and tools.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Support != rs[j].Support {
			return rs[i].Support > rs[j].Support
		}
		a, b := rs[i].Items, rs[j].Items
		for x := 0; x < len(a) && x < len(b); x++ {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return len(a) < len(b)
	})
}
