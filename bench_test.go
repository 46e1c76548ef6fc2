package sigfim

// Benchmark harness: one benchmark per table of the paper's evaluation
// (Tables 1-5; the paper has no figures). Each benchmark regenerates the
// table's rows for a scaled benchmark profile; `go test -bench Table -v`
// prints the actual values via b.Log. cmd/experiments runs the same
// computations over all profiles with configurable scale.
//
// The profiles are scaled (t divided by benchScale) so the full suite runs
// in minutes; the qualitative shape — which (dataset, k) pairs admit finite
// s*, the ordering of ŝ_min across profiles, power ratios >= 1 — is
// preserved under scaling because every threshold is driven by Binomial
// tails in t.

import (
	"testing"
)

const (
	benchScale = 32
	benchDelta = 80
	benchSeed  = 20090629
)

func benchSpec(b *testing.B, name string) BenchmarkSpec {
	b.Helper()
	spec, err := BenchmarkProfile(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec.Scale(benchScale)
}

// BenchmarkTable1Profiles measures profile extraction (the Table 1 columns)
// on a generated instance of each benchmark.
func BenchmarkTable1Profiles(b *testing.B) {
	for _, name := range BenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			d := benchSpec(b, name).Real(benchSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := d.Profile(name)
				if p.NumTransactions == 0 {
					b.Fatal("empty profile")
				}
			}
			p := d.Profile(name)
			b.Logf("n=%d t=%d m=%.2f f=[%.3g, %.3g]",
				p.NumItems, p.NumTransactions, p.AvgTransactionLen, p.FMin, p.FMax)
		})
	}
}

// BenchmarkTable2SMin runs Algorithm 1 (FindPoissonThreshold) on the random
// counterpart of each profile for k = 2, 3, 4 — the Table 2 computation.
func BenchmarkTable2SMin(b *testing.B) {
	for _, name := range BenchmarkNames() {
		for _, k := range []int{2, 3, 4} {
			b.Run(benchName(name, k), func(b *testing.B) {
				d := benchSpec(b, name).Random(benchSeed)
				var sMin int
				var err error
				for i := 0; i < b.N; i++ {
					sMin, err = d.FindSMin(k, &Config{Delta: benchDelta, Seed: benchSeed})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.Logf("s_min = %d", sMin)
			})
		}
	}
}

// BenchmarkTable3Procedure2 runs the full methodology (Algorithm 1 +
// Procedure 2) on the planted "real" variant of each profile — Table 3.
func BenchmarkTable3Procedure2(b *testing.B) {
	for _, name := range BenchmarkNames() {
		for _, k := range []int{2, 3, 4} {
			b.Run(benchName(name, k), func(b *testing.B) {
				d := benchSpec(b, name).Real(benchSeed)
				var rep *Report
				var err error
				for i := 0; i < b.N; i++ {
					rep, err = d.Significant(k, &Config{Delta: benchDelta, Seed: benchSeed, MaxPatterns: 1})
					if err != nil {
						b.Fatal(err)
					}
				}
				if rep.Infinite {
					b.Logf("s* = inf")
				} else {
					b.Logf("s* = %d Q = %d lambda = %.3g", rep.SStar, rep.NumSignificant, rep.Lambda)
				}
			})
		}
	}
}

// BenchmarkTable4Robustness applies Procedure 2 to a pure-random instance —
// the per-trial cost of the Table 4 robustness experiment (the table itself
// aggregates 100 such trials per profile; cmd/experiments -table 4 does the
// aggregation).
func BenchmarkTable4Robustness(b *testing.B) {
	for _, name := range BenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			spec := benchSpec(b, name)
			finite := 0
			for i := 0; i < b.N; i++ {
				d := spec.Random(benchSeed + uint64(i))
				rep, err := d.Significant(2, &Config{Delta: benchDelta, Seed: benchSeed, MaxPatterns: 1})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Infinite {
					finite++
				}
			}
			b.Logf("finite s* in %d of %d random trials", finite, b.N)
		})
	}
}

// BenchmarkTable5Power runs Procedure 2 with the Procedure 1 baseline and
// reports the power ratio r = Q_{k,s*}/|R| — Table 5.
func BenchmarkTable5Power(b *testing.B) {
	for _, name := range BenchmarkNames() {
		for _, k := range []int{2, 3, 4} {
			b.Run(benchName(name, k), func(b *testing.B) {
				d := benchSpec(b, name).Real(benchSeed)
				var rep *Report
				var err error
				for i := 0; i < b.N; i++ {
					rep, err = d.Significant(k, &Config{
						Delta: benchDelta, Seed: benchSeed,
						Correction: CorrectionBY, MaxPatterns: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if rep.Baseline != nil {
					b.Logf("|R| = %d, r = %.3f", rep.Baseline.NumSignificant, rep.PowerRatio)
				}
			})
		}
	}
}

func benchName(dataset string, k int) string {
	return dataset + "/k=" + string(rune('0'+k))
}

// BenchmarkMine compares the mining algorithms on a realistic profile — the
// engine-level ablation behind every table.
func BenchmarkMine(b *testing.B) {
	d := benchSpec(b, "Bms2").Real(benchSeed)
	sMin := 10
	for _, algo := range []string{AlgoEclat, AlgoEclatBit, AlgoApriori, AlgoFPGrowth} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Mine(MineOptions{K: 2, MinSupport: sMin, Algorithm: algo}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountVsMine quantifies the benefit of counting Q_{k,s} without
// materializing itemsets (what Procedure 2's histogram pass relies on).
func BenchmarkCountVsMine(b *testing.B) {
	d := benchSpec(b, "Bms1").Real(benchSeed)
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.CountK(3, 2)
		}
	})
	b.Run("mine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Mine(MineOptions{K: 3, MinSupport: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGenerate measures null-model dataset generation (the inner loop
// of Algorithm 1): cost is proportional to output size, not to t*n.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"Bms1", "Pumsb*"} {
		b.Run(name, func(b *testing.B) {
			spec := benchSpec(b, name)
			d := spec.Random(benchSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.RandomTwin(uint64(i))
			}
		})
	}
}

// BenchmarkSwapRandomization measures the alternative null model's chain.
func BenchmarkSwapRandomization(b *testing.B) {
	d := benchSpec(b, "Bms1").Real(benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SwapTwin(uint64(i))
	}
}
