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
// until no candidates survive). Apriori is a serial reference miner.
func aprioriLevels(d *dataset.Dataset, maxLevel, minSupport int) [][]Result {
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
		for _, tr := range d.Transactions() {
			if len(tr) >= l {
				trie.walkCount(tr, l)
			}
		}
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
// items, visiting exactly the candidates contained in it.
type candidateTrie struct {
	children map[uint32]*candidateTrie
	count    int
	leaf     bool
}

func newTrieNode() *candidateTrie {
	return &candidateTrie{children: make(map[uint32]*candidateTrie)}
}

func buildCandidateTrie(cands []Itemset) *candidateTrie {
	root := newTrieNode()
	for _, c := range cands {
		node := root
		for _, it := range c {
			child, ok := node.children[it]
			if !ok {
				child = newTrieNode()
				node.children[it] = child
			}
			node = child
		}
		node.leaf = true
	}
	return root
}

// walkCount increments every candidate of length `remaining` contained in the
// sorted transaction tr.
func (n *candidateTrie) walkCount(tr []uint32, remaining int) {
	if remaining == 0 {
		if n.leaf {
			n.count++
		}
		return
	}
	// Prune: not enough items left to complete a candidate.
	for i := 0; i+remaining <= len(tr); i++ {
		if child, ok := n.children[tr[i]]; ok {
			child.walkCount(tr[i+1:], remaining-1)
		}
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
