package mining

import (
	"fmt"

	"sigfim/internal/dataset"
)

// Algorithm selects the mining strategy.
type Algorithm int

const (
	// Auto mines vertically with one policy everywhere: the hash path at
	// floors <= 8 when enumerating transaction subsets is cheap, Eclat over
	// tid lists otherwise.
	Auto Algorithm = iota
	// EclatTids selects vertical mining over sorted tid lists; for fixed k
	// it shares Auto's dispatch, including the low-floor hash path.
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
	// Workers bounds the goroutines of the parallel engine; 0 selects
	// runtime.NumCPU(), 1 forces the serial path. For a fixed algorithm the
	// output is identical — values and order — for every worker count:
	// Eclat shards first-item prefix classes, Apriori shards its counting
	// scans, and FP-Growth shards the header-table suffix classes of the
	// global tree. (Orders differ BETWEEN algorithms: Eclat emits DFS
	// order, Apriori and FP-Growth emit lexicographically sorted output.)
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
// all-sizes miner. Apriori and FP-Growth mine d as-is; Eclat mines its
// vertical layout.
func Mine(d *dataset.Dataset, opts Options) ([]Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Algorithm == Apriori || opts.Algorithm == FPGrowth {
		return mine(d, nil, opts), nil
	}
	return mine(nil, d.Vertical(), opts), nil
}

// MineVertical is Mine over the vertical layout (the natural input when
// datasets come from the random generator); Apriori and FP-Growth convert it
// to transactions first.
func MineVertical(v *dataset.Vertical, opts Options) ([]Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return mine(nil, v, opts), nil
}

// mine runs validated options against whichever layout the caller holds: d
// (horizontal algorithms only) or v.
func mine(d *dataset.Dataset, v *dataset.Vertical, opts Options) []Result {
	workers := resolveWorkers(opts.Workers)
	s := NewScratch()
	if opts.K > 0 {
		var out []Result
		visitK(d, v, opts.K, opts.MinSupport, workers, opts.Algorithm, s, func(items Itemset, sup int) {
			out = append(out, Result{Items: items.Clone(), Support: sup})
		})
		return out
	}
	switch opts.Algorithm {
	case Apriori:
		var out []Result
		for _, level := range aprioriLevels(horizontal(d, v, s), opts.MaxLen, opts.MinSupport, workers) {
			out = append(out, level...)
		}
		return out
	case FPGrowth:
		return fpGrowthAll(horizontal(d, v, s), opts.MinSupport, opts.MaxLen, workers, s)
	default:
		return eclatAll(v, opts.MinSupport, opts.MaxLen, workers)
	}
}

// horizontal returns d when the caller holds it, else v converted into s.
func horizontal(d *dataset.Dataset, v *dataset.Vertical, s *Scratch) *dataset.Dataset {
	if d != nil {
		return d
	}
	return s.horizontal(v)
}

// VisitKAlgoScratch streams every k-itemset with support >= minSupport to
// emit — the one fixed-k mining entry point; Mine collects it, and counting
// goes through SupportHistogramAlgoScratch. emit is never called
// concurrently and receives a scratch slice valid only during the call
// (clone it to retain it). For a fixed algorithm the emission order is
// identical for every worker count (orders differ BETWEEN algorithms: Eclat
// variants emit DFS order, the hash path table insertion order, Apriori and
// FP-Growth lexicographically sorted output).
//
// s may be nil. This is the entry point of the Monte Carlo replicate engine:
// with a reused per-worker Scratch the serial paths of every algorithm
// stream straight from pooled buffers, so a worker's second replicate
// allocates nothing.
func VisitKAlgoScratch(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch, emit func(items Itemset, support int)) {
	visitK(nil, v, k, minSupport, resolveWorkers(workers), algo, ensureScratch(s), emit)
}

// visitK is VisitKAlgoScratch over either layout (see mine) with resolved
// workers and a non-nil Scratch.
func visitK(d *dataset.Dataset, v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch, emit func(Itemset, int)) {
	checkK(k, minSupport)
	switch algo {
	case Apriori:
		if levels := aprioriLevels(horizontal(d, v, s), k, minSupport, workers); len(levels) == k {
			for _, r := range levels[k-1] {
				emit(r.Items, r.Support)
			}
		}
	case FPGrowth:
		fpGrowthVisitK(horizontal(d, v, s), k, minSupport, workers, s, emit)
	default:
		if !visitShortcut(v, k, minSupport, algo, s, emit) {
			newEclatShards(v, k, minSupport, workers, algo == EclatBits, s).stream(emit)
		}
	}
}

// SupportHistogramAlgoScratch counts the k-itemsets with support >=
// minSupport by support level without materializing them: hist[s] is the
// number of k-itemsets of support exactly s, len(hist) is the largest item
// support plus one, and CumulativeQ turns it into Q_{k,s} for every s >=
// minSupport. Every algorithm yields the same histogram, so the choice only
// affects speed; shards count into per-worker histograms merged by integer
// addition, never through the stream's replay buffers. s may be nil; a
// reused Scratch pools the horizontal conversion, the dense columns, the
// FP-tree arenas and the DFS buffers across calls.
func SupportHistogramAlgoScratch(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch) []int64 {
	checkK(k, minSupport)
	s = ensureScratch(s)
	workers = resolveWorkers(workers)
	hist := make([]int64, v.MaxItemSupport()+1)
	count := func(_ Itemset, sup int) { hist[sup]++ }
	switch algo {
	case Apriori:
		visitK(nil, v, k, minSupport, workers, algo, s, count)
	case FPGrowth:
		fpGrowthCount(s.horizontal(v), k, minSupport, workers, s, hist)
	default:
		if !visitShortcut(v, k, minSupport, algo, s, count) {
			newEclatShards(v, k, minSupport, workers, algo == EclatBits, s).count(hist)
		}
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
