package mining

import (
	"fmt"
	"slices"

	"sigfim/internal/dataset"
)

// Algorithm selects the mining strategy.
type Algorithm int

const (
	// Auto mines vertically with one policy everywhere: the hash path at
	// floors <= 8 when enumerating transaction k-subsets costs no more
	// than walking the co-occurring pairs and the subsets pack into 64-bit
	// sort words (see useHashPath), Eclat over tid lists otherwise. Every Eclat node counts its children's supports over
	// a rank-mapped transaction index and builds tid lists only for those
	// reaching the floor; it emits exactly the intersect-all DFS's itemsets,
	// supports and order.
	Auto Algorithm = iota
	// EclatTids selects vertical mining over sorted tid lists; for fixed k
	// it shares Auto's dispatch, including the low-floor hash path and the
	// counting kernel.
	EclatTids
	// EclatBits forces vertical mining over dense bitsets.
	EclatBits
	// Apriori forces level-wise horizontal mining.
	Apriori
	// FPGrowth forces FP-tree mining.
	FPGrowth
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case EclatTids:
		return "eclat-tids"
	case EclatBits:
		return "eclat-bits"
	case Apriori:
		return "apriori"
	case FPGrowth:
		return "fpgrowth"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps an algorithm name (as accepted by the CLIs and the
// public API) to its Algorithm value. The empty string selects Auto; "eclat"
// is an alias for "eclat-tids".
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "", "auto":
		return Auto, nil
	case "eclat", "eclat-tids":
		return EclatTids, nil
	case "eclat-bits":
		return EclatBits, nil
	case "apriori":
		return Apriori, nil
	case "fpgrowth":
		return FPGrowth, nil
	default:
		return Auto, fmt.Errorf("mining: unknown algorithm %q", name)
	}
}

// Options configures a mining run.
type Options struct {
	// K restricts output to itemsets of exactly this size when positive;
	// zero mines all sizes (bounded by MaxLen).
	K int
	// MinSupport is the absolute support threshold (>= 1).
	MinSupport int
	// MaxLen caps itemset size when K is zero; <= 0 means unbounded.
	MaxLen int
	// Algorithm selects the strategy; Auto by default.
	Algorithm Algorithm
	// Workers bounds the goroutines of the parallel engine, which Auto and
	// EclatTids run: 0 selects runtime.NumCPU(), 1 forces the serial path.
	// The engine shards first-item prefix classes, and its output is
	// identical — values and order — for every worker count. EclatBits,
	// Apriori and FPGrowth are serial reference miners and ignore Workers.
	// (Orders differ BETWEEN algorithms: Eclat emits DFS order, Apriori and
	// FP-Growth emit lexicographically sorted output.)
	Workers int
}

// validate rejects options no miner accepts.
func (o Options) validate() error {
	if o.MinSupport < 1 {
		return fmt.Errorf("mining: MinSupport must be >= 1, got %d", o.MinSupport)
	}
	if o.K < 0 {
		return fmt.Errorf("mining: K must be >= 0, got %d", o.K)
	}
	if o.Algorithm < Auto || o.Algorithm > FPGrowth {
		return fmt.Errorf("mining: unknown algorithm %v", o.Algorithm)
	}
	return nil
}

// Mine materializes the itemsets the options select. Fixed-k runs (K > 0)
// collect VisitKAlgoScratch's stream; all-sizes runs use the algorithm's
// all-sizes miner. Apriori and FP-Growth mine v converted to transactions.
func Mine(v *dataset.Vertical, opts Options) ([]Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	workers, s := resolveWorkers(opts.Workers), NewScratch()
	switch {
	case opts.K > 0:
		var out []Result
		visitK(v, opts.K, opts.MinSupport, workers, opts.Algorithm, s, func(items Itemset, sup int) {
			out = append(out, Result{Items: items.Clone(), Support: sup})
		})
		return out, nil
	case opts.Algorithm == Apriori:
		return slices.Concat(aprioriLevels(s.horizontal(v), opts.MaxLen, opts.MinSupport)...), nil
	case opts.Algorithm == FPGrowth:
		return fpGrowthAll(s.horizontal(v), opts.MinSupport, opts.MaxLen, s), nil
	case opts.Algorithm == EclatBits:
		return eclatAll(v, opts.MinSupport, opts.MaxLen, 1), nil
	default:
		return eclatAll(v, opts.MinSupport, opts.MaxLen, workers), nil
	}
}

// VisitKAlgoScratch streams every k-itemset with support >= minSupport to
// emit — the one fixed-k mining entry point; Mine collects it, and counting
// goes through SupportHistogramAlgoScratch. emit is never called
// concurrently and receives a scratch slice valid only during the call
// (clone it to retain it). For a fixed algorithm the emission order is
// identical for every worker count (orders differ BETWEEN algorithms: Eclat
// variants emit DFS order, the hash path first-occurrence order over the
// transaction scan, Apriori and FP-Growth lexicographically sorted output).
// workers applies to Auto and EclatTids only; the other algorithms mine
// serially.
//
// s may be nil. This is the entry point of the Monte Carlo replicate engine:
// with a reused per-worker Scratch the serial paths of every algorithm
// stream straight from pooled buffers, so a worker's second replicate
// allocates nothing.
func VisitKAlgoScratch(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch, emit func(items Itemset, support int)) {
	visitK(v, k, minSupport, resolveWorkers(workers), algo, ensureScratch(s), emit)
}

// visitK is VisitKAlgoScratch with resolved workers and a non-nil Scratch.
func visitK(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch, emit func(Itemset, int)) {
	checkK(k, minSupport)
	switch algo {
	case Apriori:
		if levels := aprioriLevels(s.horizontal(v), k, minSupport); len(levels) == k {
			for _, r := range levels[k-1] {
				emit(r.Items, r.Support)
			}
		}
	case FPGrowth:
		fpGrowthVisitK(s.horizontal(v), k, minSupport, s, emit)
	case EclatBits:
		eclatBitsVisitK(v, k, minSupport, s, emit)
	default:
		if !visitShortcut(v, k, minSupport, s, emit) {
			newEclatShards(v, k, minSupport, workers, s).stream(emit)
		}
	}
}

// SupportHistogramAlgoScratch counts the k-itemsets with support >=
// minSupport by support level without materializing them: hist[s] is the
// number of k-itemsets of support exactly s, len(hist) is the largest item
// support plus one, and CumulativeQ turns it into Q_{k,s} for every s >=
// minSupport. Every algorithm yields the same histogram, so the choice only
// affects speed. Auto and EclatTids shards count into per-worker histograms
// merged by integer addition, never through the stream's replay buffers;
// the serial reference miners count their stream. s may be nil; a reused
// Scratch pools the horizontal conversion, the dense columns, the FP-tree
// arenas and the DFS buffers across calls.
func SupportHistogramAlgoScratch(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch) []int64 {
	checkK(k, minSupport)
	s = ensureScratch(s)
	hist := make([]int64, v.MaxItemSupport()+1)
	count := func(_ Itemset, sup int) { hist[sup]++ }
	switch algo {
	case Auto, EclatTids:
		if !visitShortcut(v, k, minSupport, s, count) {
			newEclatShards(v, k, minSupport, resolveWorkers(workers), s).count(hist)
		}
	default:
		visitK(v, k, minSupport, 1, algo, s, count)
	}
	return hist
}

// CumulativeQ converts a support histogram into the full Q curve:
// out[s] = Q_{k,s} = sum_{j >= s} hist[j] for every s in [0, len(hist)).
// Procedure 2 reads every threshold of its ladder off one histogram pass.
func CumulativeQ(hist []int64) []int64 {
	out := make([]int64, len(hist))
	var acc int64
	for s := len(hist) - 1; s >= 0; s-- {
		acc += hist[s]
		out[s] = acc
	}
	return out
}

// checkK panics on arguments no fixed-k miner accepts.
func checkK(k, minSupport int) {
	if k < 1 || minSupport < 1 {
		panic("mining: fixed-k mining requires k >= 1 and minSupport >= 1")
	}
}
