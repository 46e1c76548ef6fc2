// Package randmodel implements the random dataset models the paper's
// significance tests compare against:
//
//   - IndependentModel — the paper's reference null model (Section 1.1):
//     item i appears in each of t transactions independently with its
//     observed frequency f_i. Generation runs in O(sum_i t*f_i) expected
//     time (that is, proportional to the output size, not to t*n) by
//     placing each item's occurrences with geometric skips. The skips come
//     from stats.GeometricGap, whose certified fast path (a table log
//     checked against a wide error margin, with the exact expression as
//     fallback) returns the same integers as floor(log(u)/log1p(-f_i)), so
//     a seed draws the same dataset however the gaps are computed. Prepare
//     builds every item's gap constants once per job.
//   - Swap randomization (Gionis et al. 2006) — the alternative null model
//     the paper cites, preserving both item frequencies AND transaction
//     lengths exactly via margin-preserving 2x2 swaps.
package randmodel

import (
	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// Model generates random datasets in vertical layout.
type Model interface {
	// Generate draws one dataset using the given generator.
	Generate(r *stats.RNG) *dataset.Vertical
	// NumTransactions returns t, the fixed transaction count.
	NumTransactions() int
	// NumItems returns n, the item universe size.
	NumItems() int
	// ItemFrequencies returns the expected per-item frequencies, used to
	// compute s-tilde (the largest expected k-itemset support) when seeding
	// Algorithm 1's mining floor.
	ItemFrequencies() []float64
}

// InPlaceGenerator is the optional pooled-generation interface: GenerateInto
// refills a caller-owned Vertical, reusing its per-item column backing
// arrays, so a worker that mines thousands of replicates allocates column
// storage only while the buffers are still growing. Both shipped null models
// implement it — IndependentModel directly, *SwapModel through a pooled
// chain scratch — and models that don't simply fall back to Generate.
type InPlaceGenerator interface {
	// GenerateInto draws one dataset into v, which is reshaped via
	// (*dataset.Vertical).Reuse and must not be shared with a previous
	// replicate still in use. The stream consumed from r is identical to
	// Generate's, so pooled and fresh generation produce the same dataset
	// for the same seed.
	GenerateInto(r *stats.RNG, v *dataset.Vertical)
}

// GenerateReusing draws one dataset from m into v when the model supports
// in-place generation (returning v), and falls back to m.Generate otherwise.
// v may be nil, in which case a fresh Vertical is used. For a fixed seed the
// two paths return the same dataset either way — GenerateInto's contract is
// stream identity with Generate — so pooling never changes results.
func GenerateReusing(m Model, r *stats.RNG, v *dataset.Vertical) *dataset.Vertical {
	if ipg, ok := m.(InPlaceGenerator); ok {
		if v == nil {
			v = &dataset.Vertical{}
		}
		ipg.GenerateInto(r, v)
		return v
	}
	return m.Generate(r)
}

// Prepare returns m ready to draw many replicates: an IndependentModel with
// its per-item constants built (IndependentModel.Prepare), any other model
// as it is. It never changes the datasets a seed draws, so callers prepare
// once per job or range request, before the replicate loop.
func Prepare(m Model) Model {
	if im, ok := m.(IndependentModel); ok {
		return im.Prepare()
	}
	return m
}
