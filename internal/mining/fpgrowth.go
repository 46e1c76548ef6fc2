package mining

import (
	"slices"
	"sort"

	"sigfim/internal/dataset"
)

// FP-Growth: compresses the dataset into a frequent-pattern tree (items
// ordered by descending support so common prefixes share nodes), then mines
// recursively by building conditional trees per suffix item. No candidate
// generation; each recursion multiplies the suffix pattern.
//
// The trees are index-based arenas: nodes live in one flat slice per tree
// (child/sibling/header links are indices, -1 = none), items are replaced by
// dense ranks so header chains and per-item supports are plain slices, and
// the conditional trees of a mining descent are pooled per recursion depth in
// the fpScratch — so a reused Scratch rebuilds and re-mines trees replicate
// after replicate without allocating. Child lookup walks the sibling list,
// which beats the former per-node map: fanout is bounded by the frequent-item
// count and shrinks rapidly with depth.
//
// FP-Growth is a serial reference miner: every mine runs on one goroutine,
// and every emission path ends in a lexicographic sort over distinct
// itemsets.

// fpNode is one FP-tree node; all links are indices into the owning tree's
// node arena, -1 meaning none. Node 0 is the root (rank -1).
type fpNode struct {
	rank    int32
	count   int32
	parent  int32
	child   int32 // first child
	sibling int32 // next child of the same parent
	next    int32 // header chain of nodes carrying the same rank
}

// fpTree is an FP-tree with its header table, all storage index-based and
// reusable via reset.
type fpTree struct {
	nodes   []fpNode
	heads   []int32 // per rank: first node in the header chain
	tails   []int32 // per rank: last node, for O(1) chain append
	support []int32 // per rank: support within this (conditional) tree
}

// reset empties the tree for ranks [0, numRanks), keeping capacity.
func (t *fpTree) reset(numRanks int) {
	t.nodes = append(t.nodes[:0], fpNode{rank: -1, count: 0, parent: -1, child: -1, sibling: -1, next: -1})
	if cap(t.heads) < numRanks {
		t.heads = make([]int32, numRanks)
		t.tails = make([]int32, numRanks)
		t.support = make([]int32, numRanks)
	} else {
		t.heads = t.heads[:numRanks]
		t.tails = t.tails[:numRanks]
		t.support = t.support[:numRanks]
	}
	for i := 0; i < numRanks; i++ {
		t.heads[i] = -1
		t.tails[i] = -1
		t.support[i] = 0
	}
}

// insert adds a path of ranks (already filtered to frequent items and sorted
// ascending, i.e. most frequent first) with multiplicity count.
func (t *fpTree) insert(ranks []int32, count int32) {
	cur := int32(0)
	for _, rk := range ranks {
		t.support[rk] += count
		c := t.nodes[cur].child
		for c >= 0 && t.nodes[c].rank != rk {
			c = t.nodes[c].sibling
		}
		if c < 0 {
			c = int32(len(t.nodes))
			t.nodes = append(t.nodes, fpNode{rank: rk, parent: cur, child: -1, sibling: t.nodes[cur].child, next: -1})
			t.nodes[cur].child = c
			if t.heads[rk] < 0 {
				t.heads[rk] = c
			} else {
				t.nodes[t.tails[rk]].next = c
			}
			t.tails[rk] = c
		}
		t.nodes[c].count += count
		cur = c
	}
}

// fpScratch is the FP-Growth slice of a mining Scratch: the rank maps and
// global tree of the current mine, the per-depth conditional tree pool, and
// the pattern/path buffers of one mining descent.
type fpScratch struct {
	rank     []int32    // item -> rank, -1 when infrequent
	rankItem []uint32   // rank -> item
	global   fpTree     // the global tree of the current mine
	cond     []*fpTree  // pooled conditional trees, by recursion depth
	pattern  []uint32   // suffix item stack of the descent
	sortBuf  []uint32   // emit-time sort buffer
	pathBuf  []int32    // prefix-path buffer for conditional builds
	ranksBuf []int32    // per-transaction filter/sort buffer for builds
	buf      itemsetBuf // pattern collection (fixed-k streaming)
	order    []int32    // sort permutation over buf
}

// condTree returns the pooled conditional tree for the given recursion depth.
func (f *fpScratch) condTree(depth int) *fpTree {
	for len(f.cond) <= depth {
		f.cond = append(f.cond, &fpTree{})
	}
	return f.cond[depth]
}

// fpBuild computes the rank order and builds the global FP-tree into s.fp,
// returning the number of ranks (frequent items).
func fpBuild(d *dataset.Dataset, minSupport int, s *Scratch) int {
	fs := &s.fp
	supports := d.ItemSupports()
	if cap(fs.rank) < d.NumItems() {
		fs.rank = make([]int32, d.NumItems())
	}
	fs.rank = fs.rank[:d.NumItems()]
	fs.rankItem = fs.rankItem[:0]
	for it, sup := range supports {
		fs.rank[it] = -1
		if sup >= minSupport {
			fs.rankItem = append(fs.rankItem, uint32(it))
		}
	}
	// Rank by descending support, ties by ascending id; this fixes the tree
	// shape exactly as the former map-based order did.
	items := fs.rankItem
	sort.Slice(items, func(i, j int) bool {
		if supports[items[i]] != supports[items[j]] {
			return supports[items[i]] > supports[items[j]]
		}
		return items[i] < items[j]
	})
	for rk, it := range items {
		fs.rank[it] = int32(rk)
	}
	numRanks := len(items)
	fs.global.reset(numRanks)
	for _, tr := range d.Transactions() {
		fs.ranksBuf = fpFilterSortRanks(fs.ranksBuf[:0], tr, fs.rank)
		if len(fs.ranksBuf) > 0 {
			fs.global.insert(fs.ranksBuf, 1)
		}
	}
	return numRanks
}

// fpFilterSortRanks appends the ranks of the transaction's frequent items to
// dst and sorts the appended region ascending (most frequent first — the
// insertion order the tree shape depends on).
func fpFilterSortRanks(dst []int32, tr []uint32, rank []int32) []int32 {
	start := len(dst)
	for _, it := range tr {
		if rk := rank[it]; rk >= 0 {
			dst = append(dst, rk)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// fpMineRank emits the suffix class of rank rk in tree t: the pattern
// (current descent suffix ∪ {rank rk's item}) and, recursively, everything
// below it via rk's conditional tree. Patterns are emitted as id-sorted
// scratch slices valid only during the call; t is read but never mutated.
func fpMineRank(t *fpTree, rk int32, depth int, ws *fpScratch, rankItem []uint32, minSupport, maxLen, onlyLen int, emit func(Itemset, int)) {
	ws.pattern = append(ws.pattern, rankItem[rk])
	if onlyLen == 0 || len(ws.pattern) == onlyLen {
		buf := append(ws.sortBuf[:0], ws.pattern...)
		ws.sortBuf = buf
		sortSmall(buf)
		emit(Itemset(buf), int(t.support[rk]))
	}
	if (maxLen <= 0 || len(ws.pattern) < maxLen) && rk > 0 {
		// Build the conditional tree: prefix paths of every node carrying rk.
		// Only ranks below rk can appear in a prefix (paths ascend in rank),
		// so the conditional tree is sized rk.
		cond := ws.condTree(depth)
		cond.reset(int(rk))
		for n := t.heads[rk]; n >= 0; n = t.nodes[n].next {
			path := ws.pathBuf[:0]
			for p := t.nodes[n].parent; p > 0; p = t.nodes[p].parent {
				path = append(path, t.nodes[p].rank)
			}
			ws.pathBuf = path
			// path is bottom-up; reverse to root-down rank order.
			for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
				path[l], path[r] = path[r], path[l]
			}
			if len(path) > 0 {
				cond.insert(path, t.nodes[n].count)
			}
		}
		for rk2 := rk - 1; rk2 >= 0; rk2-- {
			if cond.support[rk2] >= int32(minSupport) {
				fpMineRank(cond, rk2, depth+1, ws, rankItem, minSupport, maxLen, onlyLen, emit)
			}
		}
	}
	ws.pattern = ws.pattern[:len(ws.pattern)-1]
}

// fpMine builds the global FP-tree into s and mines every frequent
// top-level rank's suffix class — patterns up to maxLen, emitted only at
// length onlyLen when it is positive — in descending rank order, least
// frequent first, the traditional bottom-up visit.
func fpMine(d *dataset.Dataset, minSupport, maxLen, onlyLen int, s *Scratch, emit func(Itemset, int)) {
	numRanks := fpBuild(d, minSupport, s)
	fs := &s.fp
	for rk := int32(numRanks) - 1; rk >= 0; rk-- {
		if fs.global.support[rk] >= int32(minSupport) {
			fpMineRank(&fs.global, rk, 0, fs, fs.rankItem, minSupport, maxLen, onlyLen, emit)
		}
	}
}

// fpGrowthAll mines every pattern of size 1..maxLen (maxLen <= 0:
// unbounded) and returns them lexicographically sorted and freshly
// allocated.
func fpGrowthAll(d *dataset.Dataset, minSupport, maxLen int, s *Scratch) []Result {
	var out []Result
	fpMine(d, minSupport, maxLen, 0, s, func(pattern Itemset, sup int) {
		out = append(out, Result{Items: pattern.Clone(), Support: sup})
	})
	sortByItems(out)
	return out
}

// fpGrowthVisitK streams the k-itemsets with support >= minSupport to emit
// in lexicographic order, using only scratch storage: the patterns collect
// into a flat buffer that is permutation-sorted and replayed. emit receives
// a scratch slice valid only during the call.
func fpGrowthVisitK(d *dataset.Dataset, k, minSupport int, s *Scratch, emit func(Itemset, int)) {
	fs := &s.fp
	fs.buf = itemsetBuf{items: fs.buf.items[:0], sups: fs.buf.sups[:0]}
	fpMine(d, minSupport, k, k, s, fs.buf.add)
	// Lexicographic permutation sort over the collection; itemsets are
	// distinct, so the order is total.
	fs.order = fs.order[:0]
	for i := range fs.buf.sups {
		fs.order = append(fs.order, int32(i))
	}
	sort.Slice(fs.order, func(a, b int) bool {
		x, y := fs.buf.at(int(fs.order[a]), k), fs.buf.at(int(fs.order[b]), k)
		for i := 0; i < k; i++ {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return false
	})
	for _, id := range fs.order {
		emit(fs.buf.at(int(id), k), int(fs.buf.sups[id]))
	}
}
