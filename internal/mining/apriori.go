package mining

import (
	"sort"

	"sigfim/internal/dataset"
)

// Apriori: classic level-wise mining over the horizontal layout. Level l
// candidates are generated by joining frequent (l-1)-itemsets that share an
// (l-2)-prefix, pruned by the downward-closure property, and counted with a
// single dataset scan per level using a candidate prefix trie.

// aprioriLevels returns frequent itemsets level by level, each level
// lexicographically sorted, stopping after maxLevel levels (maxLevel <= 0:
// until no candidates survive). Candidate generation is serial; each level's
// counting pass shards the transactions over the workers with per-worker
// count arrays merged by integer addition, so the output is identical for
// any worker count.
func aprioriLevels(d *dataset.Dataset, maxLevel, minSupport, workers int) [][]Result {
	if minSupport < 1 {
		panic("mining: Apriori requires minSupport >= 1")
	}
	// Level 1: item supports from one scan.
	supports := d.ItemSupports()
	var level []Result
	for it, s := range supports {
		if s >= minSupport {
			level = append(level, Result{Items: Itemset{uint32(it)}, Support: s})
		}
	}
	sortByItems(level)
	var levels [][]Result
	levels = append(levels, level)
	l := 2
	for (maxLevel <= 0 || l <= maxLevel) && len(level) >= 2 {
		candidates := aprioriGen(level, l)
		if len(candidates) == 0 {
			break
		}
		trie := buildCandidateTrie(candidates)
		countCandidates(trie, d.Transactions(), l, workers)
		next := trie.collect(minSupport)
		sortByItems(next)
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
		level = next
		l++
	}
	return levels
}

func sortByItems(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i].Items, rs[j].Items
		for x := 0; x < len(a) && x < len(b); x++ {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return len(a) < len(b)
	})
}

// aprioriGen joins frequent (l-1)-itemsets sharing the first l-2 items and
// prunes candidates having an infrequent (l-1)-subset. Input must be sorted
// lexicographically.
func aprioriGen(level []Result, l int) []Itemset {
	freq := make(map[string]struct{}, len(level))
	for _, r := range level {
		freq[r.Items.Key()] = struct{}{}
	}
	var candidates []Itemset
	for i := 0; i < len(level); i++ {
		a := level[i].Items
		for j := i + 1; j < len(level); j++ {
			b := level[j].Items
			if !samePrefix(a, b, l-2) {
				break // sorted input: once the prefix changes, stop
			}
			cand := append(a.Clone(), b[l-2])
			if hasAllSubsets(cand, freq) {
				candidates = append(candidates, cand)
			}
		}
	}
	return candidates
}

func samePrefix(a, b Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hasAllSubsets checks downward closure: every (|cand|-1)-subset must be in
// freq. Subsets obtained by dropping the last two positions are the join
// parents, so only the remaining drops need checking — but checking all is
// cheap and simpler.
func hasAllSubsets(cand Itemset, freq map[string]struct{}) bool {
	sub := make(Itemset, len(cand)-1)
	for drop := range cand {
		copy(sub, cand[:drop])
		copy(sub[drop:], cand[drop+1:])
		if _, ok := freq[sub.Key()]; !ok {
			return false
		}
	}
	return true
}

// candidateTrie is a prefix trie over sorted candidate itemsets; leaves carry
// counters. Counting a transaction walks the trie over the transaction's
// items, visiting exactly the candidates contained in it. Each leaf also
// carries a dense index so parallel counting can accumulate into flat
// per-worker arrays instead of the shared nodes.
type candidateTrie struct {
	children map[uint32]*candidateTrie
	count    int
	leaf     bool
	idx      int // dense leaf index, assigned at build time
}

// trieRoot pairs the root node with the leaf count the per-worker count
// arrays are sized by.
type trieRoot struct {
	*candidateTrie
	numLeaves int
}

func newTrieNode() *candidateTrie {
	return &candidateTrie{children: make(map[uint32]*candidateTrie)}
}

func buildCandidateTrie(cands []Itemset) trieRoot {
	root := trieRoot{candidateTrie: newTrieNode()}
	for _, c := range cands {
		node := root.candidateTrie
		for _, it := range c {
			child, ok := node.children[it]
			if !ok {
				child = newTrieNode()
				node.children[it] = child
			}
			node = child
		}
		if !node.leaf {
			node.leaf = true
			node.idx = root.numLeaves
			root.numLeaves++
		}
	}
	return root
}

// countCandidates runs the level-l counting pass: every candidate's count is
// the number of transactions containing it. With workers > 1 the transactions
// are sharded into contiguous chunks claimed dynamically; each worker counts
// into its own flat array (the trie is read-only during the pass) and the
// arrays are summed into the leaves afterwards.
func countCandidates(trie trieRoot, txs [][]uint32, l, workers int) {
	const chunkSize = 1024
	numChunks := (len(txs) + chunkSize - 1) / chunkSize
	if workers <= 1 || numChunks <= 1 {
		for _, tr := range txs {
			if len(tr) >= l {
				trie.walkCount(tr, l, nil)
			}
		}
		return
	}
	if workers > numChunks {
		workers = numChunks
	}
	counts := make([][]int32, workers)
	for w := range counts {
		counts[w] = make([]int32, trie.numLeaves)
	}
	parallelShards(numChunks, workers, func(w, chunk int) {
		lo := chunk * chunkSize
		hi := lo + chunkSize
		if hi > len(txs) {
			hi = len(txs)
		}
		for _, tr := range txs[lo:hi] {
			if len(tr) >= l {
				trie.walkCount(tr, l, counts[w])
			}
		}
	})
	merged := counts[0]
	for _, c := range counts[1:] {
		for i, n := range c {
			merged[i] += n
		}
	}
	trie.addCounts(merged)
}

// walkCount increments every candidate of length `remaining` contained in the
// sorted transaction tr — into the leaf itself when counts is nil, into
// counts[leaf.idx] otherwise.
func (n *candidateTrie) walkCount(tr []uint32, remaining int, counts []int32) {
	if remaining == 0 {
		if n.leaf {
			if counts == nil {
				n.count++
			} else {
				counts[n.idx]++
			}
		}
		return
	}
	// Prune: not enough items left to complete a candidate.
	for i := 0; i+remaining <= len(tr); i++ {
		if child, ok := n.children[tr[i]]; ok {
			child.walkCount(tr[i+1:], remaining-1, counts)
		}
	}
}

// addCounts folds a merged flat count array into the leaf counters.
func (n *candidateTrie) addCounts(counts []int32) {
	if n.leaf {
		n.count += int(counts[n.idx])
	}
	for _, child := range n.children {
		child.addCounts(counts)
	}
}

// collect gathers all leaves with count >= minSupport.
func (n *candidateTrie) collect(minSupport int) []Result {
	var out []Result
	var prefix Itemset
	var rec func(node *candidateTrie)
	rec = func(node *candidateTrie) {
		if node.leaf && node.count >= minSupport {
			out = append(out, Result{Items: prefix.Clone(), Support: node.count})
		}
		for it, child := range node.children {
			prefix = append(prefix, it)
			rec(child)
			prefix = prefix[:len(prefix)-1]
		}
	}
	rec(n)
	// Trie iteration order is nondeterministic (map); normalize.
	for i := range out {
		sort.Slice(out[i].Items, func(a, b int) bool { return out[i].Items[a] < out[i].Items[b] })
	}
	return out
}
