package mining

import (
	"fmt"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// Ablation benchmarks for the mining engine's three entry points: tid-list
// vs bitset Eclat vs Apriori vs FP-Growth on the stream, hash path vs DFS at
// low thresholds, worker scaling, and counting vs materializing.

// benchDataset builds a power-law dataset with planted pairs: 800 items,
// 20000 transactions, mean length ~8.
func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	r := stats.NewRNG(99)
	z := stats.FitPowerLaw(800, 1e-4, 0.25, 8)
	freqs := z.Frequencies()
	const t = 20000
	tx := make([][]uint32, t)
	for item, f := range freqs {
		// Place the item's occurrences by geometric skips over the t rows.
		g := stats.NewGeometricGap(f)
		for pos := 0; ; pos++ {
			gap, ok := g.Below(r.Float64Open(), t-pos)
			if !ok {
				break
			}
			pos += gap
			tx[pos] = append(tx[pos], uint32(item))
		}
	}
	return dataset.MustNew(800, tx)
}

// sparseDataset is short-transaction data where the hash path wins.
func sparseDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	r := stats.NewRNG(7)
	const t = 30000
	tx := make([][]uint32, t)
	for i := range tx {
		ln := 1 + poissonLen(r, 2.0)
		seen := map[int]bool{}
		for j := 0; j < ln; j++ {
			it := r.Intn(400)
			if !seen[it] {
				seen[it] = true
				tx[i] = append(tx[i], uint32(it))
			}
		}
	}
	return dataset.MustNew(400, tx)
}

// benchVisit streams one mine and discards it.
func benchVisit(b *testing.B, v *dataset.Vertical, k, minSupport, workers int, algo Algorithm) {
	b.Helper()
	n := 0
	VisitKAlgoScratch(v, k, minSupport, workers, algo, nil, func(Itemset, int) { n++ })
	if n == 0 {
		b.Fatalf("%v k=%d s=%d mined nothing", algo, k, minSupport)
	}
}

// benchAlgorithms compares the miners on one fixed-k stream.
func benchAlgorithms(b *testing.B, k, minSupport int) {
	v := benchDataset(b).Vertical()
	for _, algo := range []Algorithm{EclatTids, EclatBits, Apriori, FPGrowth} {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchVisit(b, v, k, minSupport, 1, algo)
			}
		})
	}
}

func BenchmarkAlgorithmsK2(b *testing.B) { benchAlgorithms(b, 2, 200) }

func BenchmarkAlgorithmsK3(b *testing.B) { benchAlgorithms(b, 3, 60) }

// Low-threshold regime: the stream should pick the hash path and beat the
// tid-list DFS by a wide margin.
func BenchmarkLowThresholdHashPath(b *testing.B) {
	v := sparseDataset(b).Vertical()
	if !useHashPath(v, 3, 1, NewScratch()) {
		b.Fatal("expected hash path to be selected")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVisit(b, v, 3, 1, 1, Auto)
	}
}

func BenchmarkLowThresholdEclat(b *testing.B) {
	v := sparseDataset(b).Vertical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		newEclatShards(v, 3, 1, 1, NewScratch()).stream(func(Itemset, int) { n++ })
	}
}

// BenchmarkRealK3LowFloor mines the planted Bms1/4 data at k = 3, floor 5
// — the real-data mine of Procedures 1 and 2 at a low ŝ_min, where the
// planted blocks make subset enumeration costly — with Auto (the counting
// kernel) against the intersect-all DFS oracle.
func BenchmarkRealK3LowFloor(b *testing.B) {
	v := bmsSpec(4).GenerateReal(20090629)
	if useHashPath(v, 3, 5, NewScratch()) {
		b.Fatal("expected the counting kernel to be selected")
	}
	b.Run("auto", func(b *testing.B) {
		s := NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			VisitKAlgoScratch(v, 3, 5, 1, Auto, s, func(Itemset, int) { n++ })
			benchSink = n
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = len(intersectAllDFS(v, 3, 5))
		}
	})
}

// BenchmarkNullK3LowFloor mines one Bms1/4 null replicate at k = 3, floor
// 2 — a Monte Carlo replicate at the low floor of a k = 3 job — with Auto
// (the sort-based subset counter) against the hash-table oracle.
func BenchmarkNullK3LowFloor(b *testing.B) {
	v := bmsSpec(4).GenerateNull(20090629)
	if !useHashPath(v, 3, 2, NewScratch()) {
		b.Fatal("expected the hash path to be selected")
	}
	b.Run("auto", func(b *testing.B) {
		s := NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			VisitKAlgoScratch(v, 3, 2, 1, Auto, s, func(Itemset, int) { n++ })
			benchSink = n
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = len(tableMineK(v, 3, 2))
		}
	})
}

// benchSink keeps benchmarked results live.
var benchSink int

// Parallel-engine scaling on the dense synthetic profile. On multi-core
// hardware workers=4 should be >= 2x workers=1; on a single-core runner the
// sub-benchmarks collapse to roughly equal times (the engine adds only
// shard-buffer overhead).
func BenchmarkStreamParallel(b *testing.B) {
	v := benchDataset(b).Vertical()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchVisit(b, v, 3, 60, w, EclatTids)
			}
		})
	}
}

func BenchmarkHistogramParallel(b *testing.B) {
	v := benchDataset(b).Vertical()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SupportHistogramAlgoScratch(v, 2, 50, w, Auto, nil)
			}
		})
	}
}

func BenchmarkCountVsMaterialize(b *testing.B) {
	v := benchDataset(b).Vertical()
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SupportHistogramAlgoScratch(v, 2, 50, 1, Auto, nil)
		}
	})
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Mine(v, Options{K: 2, MinSupport: 50, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClosedEnumeration(b *testing.B) {
	v := benchDataset(b).Vertical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		VisitClosed(v, 400, func(Itemset, int) bool { n++; return true })
	}
}
