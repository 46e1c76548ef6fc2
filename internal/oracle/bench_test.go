package oracle

import (
	"testing"

	"sigfim/internal/stats"
)

// Analytic-bound benchmarks: the ablation DESIGN.md calls out is analytic
// (bucketed) lambda/b1 versus the Monte Carlo estimates of Algorithm 1.

func benchFreqs() []float64 {
	return stats.FitPowerLaw(2000, 1e-5, 0.3, 8).Frequencies()
}

func BenchmarkBucketedLambda(b *testing.B) {
	buckets := NewBuckets(benchFreqs(), 1.05)
	for i := 0; i < b.N; i++ {
		BucketedLambda(buckets, 50000, 2, 1000)
	}
}

func BenchmarkBucketedB1(b *testing.B) {
	buckets := NewBuckets(benchFreqs(), 1.2)
	for i := 0; i < b.N; i++ {
		BucketedB1(buckets, 50000, 2, 1000)
	}
}

func BenchmarkUniformBoundsSum(b *testing.B) {
	u := UniformBounds{N: 1000, K: 3, T: 100000, P: 0.01}
	for i := 0; i < b.N; i++ {
		u.Sum(25)
	}
}

func BenchmarkUniformSMin(b *testing.B) {
	u := UniformBounds{N: 1000, K: 2, T: 100000, P: 0.01}
	for i := 0; i < b.N; i++ {
		u.SMin(0.01, 1)
	}
}

func BenchmarkJointTailDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JointTail(10000, 0.01, 0.012, 0.001, 10)
	}
}

func BenchmarkExactLambdaSmall(b *testing.B) {
	freqs := benchFreqs()[:25]
	for i := 0; i < b.N; i++ {
		ExactLambda(freqs, 50000, 3, 100)
	}
}
