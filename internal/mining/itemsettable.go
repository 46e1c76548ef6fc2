package mining

// ItemsetTable is a string-free set of fixed-size itemsets: an open-addressing
// hash table keyed by the packed [k]uint32 item tuple, with the tuples stored
// in one flat insertion-ordered array. It indexes the Monte Carlo
// collection's union set W, replacing a map[string]T + Itemset.Key() index
// whose heap-allocated string key per itemset per replicate dominated GC
// pressure. (The low-floor mining path counts by sorting, not in a table.)
//
// Entry ids are dense and assigned in insertion order, so iteration over
// [0, Len()) is deterministic; callers keep per-entry payloads in parallel
// slices indexed by id.
type ItemsetTable struct {
	k     int
	data  []uint32 // flat tuples, k words per entry; entry id = position/k
	slots []int32  // open addressing, -1 = empty, else entry id
	n     int
}

// NewItemsetTable returns a table for itemsets of exactly k items, sized for
// about capHint entries (0 picks a small default).
func NewItemsetTable(k, capHint int) *ItemsetTable {
	if k < 1 {
		panic("mining: ItemsetTable requires k >= 1")
	}
	t := &ItemsetTable{k: k}
	t.grow(tableSizeFor(capHint))
	if capHint > 0 {
		t.data = make([]uint32, 0, capHint*k)
	}
	return t
}

// tableSizeFor returns the power-of-two slot count holding n entries below
// the 2/3 load ceiling.
func tableSizeFor(n int) int {
	size := 16
	for size*2 < n*3 {
		size *= 2
	}
	return size
}

// Len returns the number of distinct itemsets stored.
func (t *ItemsetTable) Len() int { return t.n }

// Items returns the stored tuple of entry id (a view into the flat storage;
// do not modify, invalidated by the next Insert growth).
func (t *ItemsetTable) Items(id int) []uint32 {
	return t.data[id*t.k : (id+1)*t.k]
}

// hashItems mixes the k item words; the multiply-xorshift step is the
// splitmix64 finalizer, strong enough that linear probing stays short.
func hashItems(items []uint32) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range items {
		h ^= uint64(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

func (t *ItemsetTable) equalAt(id int32, items []uint32) bool {
	e := t.data[int(id)*t.k:]
	for i, v := range items {
		if e[i] != v {
			return false
		}
	}
	return true
}

// Insert adds the tuple if absent and returns its entry id plus whether it
// was newly added. The tuple is copied into the flat storage.
func (t *ItemsetTable) Insert(items []uint32) (id int, added bool) {
	if t.n*3 >= len(t.slots)*2 {
		t.grow(len(t.slots) * 2)
	}
	mask := uint64(len(t.slots) - 1)
	idx := hashItems(items) & mask
	for {
		s := t.slots[idx]
		if s < 0 {
			break
		}
		if t.equalAt(s, items) {
			return int(s), false
		}
		idx = (idx + 1) & mask
	}
	id = t.n
	t.slots[idx] = int32(id)
	t.data = append(t.data, items...)
	t.n++
	return id, true
}

// grow rehashes into a larger slot array; entry ids are stable.
func (t *ItemsetTable) grow(size int) {
	if size < len(t.slots) {
		size = len(t.slots)
	}
	if cap(t.slots) >= size {
		t.slots = t.slots[:size]
	} else {
		t.slots = make([]int32, size)
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	mask := uint64(size - 1)
	for id := 0; id < t.n; id++ {
		items := t.Items(id)
		idx := hashItems(items) & mask
		for t.slots[idx] >= 0 {
			idx = (idx + 1) & mask
		}
		t.slots[idx] = int32(id)
	}
}
