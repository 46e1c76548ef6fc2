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
	var total int64
	eachReplicateQ(m, k, s, reps, seed, func(_ int, q int64) { total += q })
	return float64(total) / float64(reps)
}

// SampleQ draws the distribution of Q̂_{k,s} across reps replicates,
// returning one count per replicate — the sample the Poisson
// goodness-of-fit test checks (TestSampleQPoissonAboveSMin).
func SampleQ(m randmodel.Model, k, s, reps int, seed uint64) []int {
	if s < 1 || reps < 1 {
		panic("montecarlo: SampleQ requires s >= 1 and reps >= 1")
	}
	out := make([]int, reps)
	eachReplicateQ(m, k, s, reps, seed, func(i int, q int64) { out[i] = int(q) })
	return out
}

// eachReplicateQ hands fn Q_{k,s} of each of reps replicates drawn from
// seed, counted serially without materializing the itemsets. One Vertical
// and one Scratch serve every replicate; pooled generation consumes the
// random stream fresh generation does, so reuse never changes a count.
func eachReplicateQ(m randmodel.Model, k, s, reps int, seed uint64, fn func(i int, q int64)) {
	m = randmodel.Prepare(m)
	r := stats.NewRNG(seed)
	var v *dataset.Vertical
	scratch := mining.NewScratch()
	for i := 0; i < reps; i++ {
		v = randmodel.GenerateReusing(m, r.Split(), v)
		fn(i, mining.CumulativeQ(mining.SupportHistogramAlgoScratch(v, k, s, 1, mining.Auto, scratch))[0])
	}
}
