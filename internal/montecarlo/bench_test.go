package montecarlo

import (
	"context"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

// Algorithm 1 benchmarks: replicate mining dominates; the evaluator and the
// crossing search must stay negligible next to it.

func benchModelMC() randmodel.IndependentModel {
	z := stats.FitPowerLaw(500, 1e-4, 0.1, 4)
	return randmodel.IndependentModel{T: 20000, Freqs: z.Frequencies()}
}

func BenchmarkFindPoissonThresholdK2(b *testing.B) {
	m := benchModelMC()
	for i := 0; i < b.N; i++ {
		if _, err := FindPoissonThreshold(m, Config{K: 2, Delta: 40, Epsilon: 0.01, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindPoissonThresholdK3(b *testing.B) {
	m := benchModelMC()
	for i := 0; i < b.N; i++ {
		if _, err := FindPoissonThreshold(m, Config{K: 3, Delta: 40, Epsilon: 0.01, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindPoissonThreshold is the end-to-end Algorithm 1 benchmark of
// the pooled replicate engine.
func BenchmarkFindPoissonThreshold(b *testing.B) {
	m := benchModelMC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FindPoissonThreshold(m, Config{K: 2, Delta: 100, Epsilon: 0.01, Seed: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineAll isolates the replicate generate-mine-merge loop, the
// hottest path of the whole system: Delta replicates generated, mined at a
// fixed floor, and merged into the collection.
func BenchmarkMineAll(b *testing.B) {
	m := benchModelMC()
	root := stats.NewRNG(1)
	seeds := make([]uint64, 100)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	floor := floorOf(maxExpectedSupport(m, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mineAll(context.Background(), m, seeds, floor, Config{K: 2, MaxEntries: 50_000_000, Workers: 1, Algorithm: mining.Auto}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineAllLowFloor is the merge-bound regime: k=3 at a floor of a
// few transactions produces a union set of hundreds of itemsets with tens of
// thousands of (itemset, replicate) entries, so the collection index — not
// replicate generation — dominates. This is where the string-free table and
// the pooled scratch pay off in wall clock, not just allocations.
func BenchmarkMineAllLowFloor(b *testing.B) {
	m := benchModelMC()
	root := stats.NewRNG(1)
	seeds := make([]uint64, 40)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	floor := floorOf(maxExpectedSupport(m, 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mineAll(context.Background(), m, seeds, floor, Config{K: 3, MaxEntries: 50_000_000, Workers: 1, Algorithm: mining.Auto}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateLambda(b *testing.B) {
	m := benchModelMC()
	for i := 0; i < b.N; i++ {
		EstimateLambda(m, 2, 30, 20, 7)
	}
}

func BenchmarkEvaluatorEval(b *testing.B) {
	m := benchModelMC()
	res, err := FindPoissonThreshold(m, Config{K: 2, Delta: 60, Epsilon: 0.01, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	// Rebuild a collection at the result's floor for direct evaluator timing.
	root := stats.NewRNG(3)
	seeds := make([]uint64, 60)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	col, _, err := mineAll(context.Background(), m, seeds, res.Floor, Config{K: 2, MaxEntries: 50_000_000, Algorithm: mining.Auto})
	if err != nil {
		b.Fatal(err)
	}
	ev := newEvaluator(col, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.eval(res.SMin)
	}
}

// benchSwapBase is the fixed swap-null base dataset: one independence draw
// (n=150, t=3000, power-law frequencies) materialized horizontally, ~12k
// matrix occurrences.
func benchSwapBase() *dataset.Dataset {
	z := stats.FitPowerLaw(150, 1e-3, 0.12, 4)
	im := randmodel.IndependentModel{T: 3000, Freqs: z.Frequencies()}
	return im.Generate(stats.NewRNG(99)).Horizontal()
}

// BenchmarkSwapReplicates is the swap-null replicate loop (generate via the
// swap chain, mine, merge) the in-place generator is measured by: 40
// replicates at 4 proposals per occurrence, k=2, floor=s-tilde, workers=1.
// Before the pooled chain scratch this path allocated a full dataset (t
// membership maps, horizontal + vertical materialization) per replicate.
func BenchmarkSwapReplicates(b *testing.B) {
	m := &randmodel.SwapModel{Base: benchSwapBase(), ProposalsPerOccurrence: 4}
	root := stats.NewRNG(1)
	seeds := make([]uint64, 40)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	floor := floorOf(maxExpectedSupport(m, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mineAll(context.Background(), m, seeds, floor, Config{K: 2, MaxEntries: 50_000_000, Workers: 1, Algorithm: mining.Auto}); err != nil {
			b.Fatal(err)
		}
	}
}
