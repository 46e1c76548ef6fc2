package stats

import "testing"

// Micro-benchmarks for the hot statistical primitives: exact tails are
// called once per itemset in Procedure 1 and once per ladder level in
// Procedure 2; geometric gaps dominate random dataset generation.

func BenchmarkBinomialUpperTail(b *testing.B) {
	bin := Binomial{N: 1000000, P: 1e-4}
	for i := 0; i < b.N; i++ {
		bin.UpperTail(150)
	}
}

func BenchmarkPoissonUpperTail(b *testing.B) {
	p := Poisson{Lambda: 2.5}
	for i := 0; i < b.N; i++ {
		p.UpperTail(15)
	}
}

// BenchmarkGeometricGapColumn fills one column of t transactions with an
// item of frequency f by geometric skips, the independence null model's
// column walk.
func BenchmarkGeometricGapColumn(b *testing.B) {
	r := NewRNG(2)
	const t = 100000
	g := NewGeometricGap(1e-3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for pos := 0; ; pos++ {
			gap, ok := g.Below(r.Float64Open(), t-pos)
			if !ok {
				break
			}
			pos += gap
		}
	}
}

// BenchmarkNaiveBernoulliColumn is the baseline the gap walk replaces:
// one coin flip per transaction.
func BenchmarkNaiveBernoulliColumn(b *testing.B) {
	r := NewRNG(3)
	const t = 100000
	const f = 1e-3
	for i := 0; i < b.N; i++ {
		count := 0
		for j := 0; j < t; j++ {
			if r.Float64() < f {
				count++
			}
		}
		_ = count
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(4)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(5)
	for i := 0; i < b.N; i++ {
		r.Intn(1000003)
	}
}
