package montecarlo

import (
	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

// EstimateLambda returns a standalone Monte Carlo estimate of
// E[Q̂_{k,s}] — the expected number of k-itemsets with support >= s in a
// random dataset — from reps fresh replicates. Procedure 2 normally reuses
// the Algorithm 1 replicates via Result.Lambda; this direct estimator serves
// validation and ad-hoc exploration.
func EstimateLambda(m randmodel.Model, k, s, reps int, seed uint64) float64 {
	if s < 1 || reps < 1 {
		panic("montecarlo: EstimateLambda requires s >= 1 and reps >= 1")
	}
	r := stats.NewRNG(seed)
	var total int64
	for i := 0; i < reps; i++ {
		v := m.Generate(r.Split())
		total += countK(v, k, s)
	}
	return float64(total) / float64(reps)
}

// SampleQ draws the distribution of Q̂_{k,s} across reps replicates,
// returning one count per replicate — the sample the Poisson
// goodness-of-fit test checks (TestSampleQPoissonAboveSMin).
func SampleQ(m randmodel.Model, k, s, reps int, seed uint64) []int {
	if s < 1 || reps < 1 {
		panic("montecarlo: SampleQ requires s >= 1 and reps >= 1")
	}
	r := stats.NewRNG(seed)
	out := make([]int, reps)
	for i := range out {
		v := m.Generate(r.Split())
		out[i] = int(countK(v, k, s))
	}
	return out
}

// countK returns Q_{k,s} of one replicate, counted serially without
// materializing the itemsets.
func countK(v *dataset.Vertical, k, s int) int64 {
	return mining.CumulativeQ(mining.SupportHistogramAlgoScratch(v, k, s, 1, mining.Auto, nil))[0]
}
