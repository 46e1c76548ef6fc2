package oracle

import (
	"math"
	"sort"

	"sigfim/internal/stats"
)

// Lambda computation: lambda_{k,s} = E[Q̂_{k,s}] = sum over all k-itemsets X
// of Pr(Bin(t, prod f_i) >= s). ExactLambda enumerates the C(n,k) itemsets —
// fine for tests and small universes; BucketedLambda groups items into
// geometric frequency buckets and enumerates bucket compositions instead,
// reducing the sum to C(#buckets + k - 1, k) terms with relative error
// bounded by the bucket width. The same composition machinery yields an
// analytic b1 for arbitrary frequency vectors (BucketedB1), used to
// cross-check the Monte Carlo estimates of Algorithm 1.

// ExactLambda computes lambda by full enumeration; cost C(n, k) tail
// evaluations.
func ExactLambda(freqs []float64, t, k, s int) float64 {
	n := len(freqs)
	if k < 1 || k > n {
		return 0
	}
	total := 0.0
	idx := make([]int, k)
	var rec func(pos, start int, prod float64)
	rec = func(pos, start int, prod float64) {
		if pos == k {
			total += stats.Binomial{N: t, P: prod}.UpperTail(s)
			return
		}
		for i := start; i < n; i++ {
			idx[pos] = i
			rec(pos+1, i+1, prod*freqs[i])
		}
	}
	rec(0, 0, 1)
	return total
}

// Buckets partitions items into geometric frequency bands.
type Buckets struct {
	Count []int     // items per bucket
	Rep   []float64 // representative frequency (geometric mean of members)
}

// NewBuckets groups the frequency vector into geometric buckets of the given
// ratio (e.g. 1.05 for 5% bands). Zero-frequency items are dropped: they can
// never contribute to any itemset's support.
func NewBuckets(freqs []float64, ratio float64) Buckets {
	if ratio <= 1 {
		panic("oracle: bucket ratio must exceed 1")
	}
	pos := make([]float64, 0, len(freqs))
	for _, f := range freqs {
		if f > 0 {
			pos = append(pos, f)
		}
	}
	if len(pos) == 0 {
		return Buckets{}
	}
	sort.Float64s(pos)
	var b Buckets
	start := 0
	for start < len(pos) {
		// Bucket spans [pos[start], pos[start]*ratio).
		end := start
		logSum := 0.0
		for end < len(pos) && pos[end] < pos[start]*ratio {
			logSum += math.Log(pos[end])
			end++
		}
		b.Count = append(b.Count, end-start)
		b.Rep = append(b.Rep, math.Exp(logSum/float64(end-start)))
		start = end
	}
	return b
}

// visitCompositions enumerates all ways to choose k items across the buckets
// (c_b items from bucket b, sum c_b = k), invoking fn with the composition's
// multiplicity count (product of C(count_b, c_b)) and the product of
// representative frequencies.
func (b Buckets) visitCompositions(k int, fn func(count float64, prodFreq float64, comp []int)) {
	nb := len(b.Count)
	comp := make([]int, nb)
	var rec func(bucket, remaining int, logCount, logProd float64)
	rec = func(bucket, remaining int, logCount, logProd float64) {
		if remaining == 0 {
			fn(math.Exp(logCount), math.Exp(logProd), comp)
			return
		}
		if bucket >= nb {
			return
		}
		// Upper bound on how many more items are available.
		avail := 0
		for i := bucket; i < nb; i++ {
			avail += b.Count[i]
		}
		if avail < remaining {
			return
		}
		max := remaining
		if b.Count[bucket] < max {
			max = b.Count[bucket]
		}
		for c := 0; c <= max; c++ {
			comp[bucket] = c
			rec(bucket+1, remaining-c,
				logCount+stats.LogChoose(b.Count[bucket], c),
				logProd+float64(c)*math.Log(b.Rep[bucket]))
		}
		comp[bucket] = 0
	}
	rec(0, k, 0, 0)
}

// BucketedLambda approximates lambda using bucket compositions.
func BucketedLambda(b Buckets, t, k, s int) float64 {
	total := 0.0
	b.visitCompositions(k, func(count, prod float64, _ []int) {
		if count == 0 {
			return
		}
		total += count * stats.Binomial{N: t, P: prod}.UpperTail(s)
	})
	return total
}

// BucketedB1 approximates b1(s) = sum_X p_X * sum_{Y: Y∩X != ∅} p_Y for an
// arbitrary frequency vector. For each composition c of X it computes the
// total tail mass lambda and the mass D_c of itemsets disjoint from X
// (compositions drawn from the reduced bucket counts count_b - c_b), giving
// b1 = sum_c N_c p_c (lambda - D_c).
func BucketedB1(b Buckets, t, k, s int) float64 {
	lambda := BucketedLambda(b, t, k, s)
	if lambda == 0 {
		return 0
	}
	total := 0.0
	b.visitCompositions(k, func(count, prod float64, comp []int) {
		if count == 0 {
			return
		}
		pc := stats.Binomial{N: t, P: prod}.UpperTail(s)
		if pc == 0 {
			return
		}
		// Disjoint mass: compositions over the buckets with c removed.
		reduced := Buckets{Count: make([]int, len(b.Count)), Rep: b.Rep}
		for i := range b.Count {
			reduced.Count[i] = b.Count[i] - comp[i]
		}
		d := BucketedLambda(reduced, t, k, s)
		overlap := lambda - d
		if overlap < 0 {
			overlap = 0
		}
		total += count * pc * overlap
	})
	return total
}
