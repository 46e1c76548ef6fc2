package randmodel

import (
	"fmt"

	"sigfim/internal/bitset"
	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// IndependentModel is the paper's null model: a dataset of T transactions
// over len(Freqs) items where item i joins each transaction independently
// with probability Freqs[i].
type IndependentModel struct {
	T     int
	Freqs []float64

	// gaps, set by Prepare, holds stats.NewGeometricGap(Freqs[i]) for every
	// item, so a job builds each item's constants once instead of once per
	// column of every replicate.
	gaps []stats.GeometricGap
}

// FromProfile builds the null model matching a measured dataset profile —
// "a random dataset with the same number of transactions and the same
// individual item frequencies" (paper, abstract).
func FromProfile(p dataset.Profile) IndependentModel {
	return IndependentModel{T: p.T, Freqs: p.Freqs}
}

// Validate checks model parameters.
func (m IndependentModel) Validate() error {
	if m.T < 0 {
		return fmt.Errorf("randmodel: negative transaction count %d", m.T)
	}
	for i, f := range m.Freqs {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("randmodel: frequency %v of item %d outside [0,1]", f, i)
		}
	}
	return nil
}

// NumTransactions returns t.
func (m IndependentModel) NumTransactions() int { return m.T }

// NumItems returns n.
func (m IndependentModel) NumItems() int { return len(m.Freqs) }

// ItemFrequencies returns the model's frequency vector.
func (m IndependentModel) ItemFrequencies() []float64 { return m.Freqs }

// Generate draws one dataset. Column i is filled by visiting only the
// transactions that contain item i (geometric skip sampling), so the total
// expected cost is the expected dataset size sum_i T*f_i. It is a thin
// wrapper over GenerateInto with a fresh Vertical.
func (m IndependentModel) Generate(r *stats.RNG) *dataset.Vertical {
	v := &dataset.Vertical{}
	m.GenerateInto(r, v)
	return v
}

// Prepare returns m with every item's geometric-gap constants built, for a
// caller about to draw many replicates: the Monte Carlo engine prepares once
// per job, a fabric worker once per range request. The constants are a
// function of Freqs at the time of the call, so Freqs must not change
// afterwards. A prepared model draws exactly the datasets the unprepared
// one does; preparing a prepared model returns it unchanged.
func (m IndependentModel) Prepare() IndependentModel {
	if m.gaps != nil {
		return m
	}
	m.gaps = make([]stats.GeometricGap, len(m.Freqs))
	for i, f := range m.Freqs {
		m.gaps[i] = stats.NewGeometricGap(f)
	}
	return m
}

// GenerateInto draws one dataset into v, reusing v's column backing arrays
// (see randmodel.InPlaceGenerator). The random stream consumed is identical
// to Generate's, so for a fixed seed the pooled and fresh paths produce the
// same dataset, prepared or not.
//
// Column i draws one uniform per occurrence plus one that ends the column,
// through stats.GeometricGap, whose certified fast path returns exactly the
// integers of the reference floor(log(u)/log1p(-f)). The uniforms come off
// one stats.UniformBlock for the whole replicate, which leaves r just after
// the last one used. A frequency that is not
// above 0 (NaN included) gives an empty column and one at or above 1 a full
// column, neither drawing; Validate rejects every value outside [0, 1].
func (m IndependentModel) GenerateInto(r *stats.RNG, v *dataset.Vertical) {
	v.Reuse(m.T, len(m.Freqs))
	if m.T == 0 {
		return
	}
	var b stats.UniformBlock
	b.Reset(r)
	for i, f := range m.Freqs {
		switch {
		case !(f > 0):
		case f >= 1:
			v.Tids[i] = fullColumn(v.Tids[i], m.T)
		case m.gaps != nil:
			v.Tids[i] = sampleColumn(v.Tids[i], m.T, f, m.gaps[i], &b)
		default:
			v.Tids[i] = sampleColumn(v.Tids[i], m.T, f, stats.NewGeometricGap(f), &b)
		}
	}
	b.Release()
}

// sampleColumn appends the sorted tids of a Bernoulli(f) column of height t,
// 0 < f < 1, to col (passed with length zero) and returns it. g holds f's
// gap constants; the uniforms come off b.
func sampleColumn(col bitset.TidList, t int, f float64, g stats.GeometricGap, b *stats.UniformBlock) bitset.TidList {
	if col == nil {
		col = make(bitset.TidList, 0, int(float64(t)*f)+4)
	}
	return g.AppendSuccesses(col, t, b)
}

// fullColumn appends every tid of a column of height t to col.
func fullColumn(col bitset.TidList, t int) bitset.TidList {
	for tid := 0; tid < t; tid++ {
		col = append(col, uint32(tid))
	}
	return col
}
