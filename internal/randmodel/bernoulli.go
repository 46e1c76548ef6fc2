package randmodel

import (
	"fmt"
	"math"

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
	// column of every replicate; room is arenaRoom(T, Freqs).
	gaps []stats.GeometricGap
	room int
}

// MaxTransactions is the largest T a model may have: tids are uint32, so
// the last transaction of a larger model would wrap onto an earlier one.
const MaxTransactions = 1 << 32

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
	if uint64(m.T) > MaxTransactions {
		return fmt.Errorf("randmodel: %d transactions exceed the uint32 tid range (at most %d)", m.T, uint64(MaxTransactions))
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
	m.room = arenaRoom(m.T, m.Freqs)
	return m
}

// walkChunk is the number of columns GenerateInto hands the column walk at
// a time; their end offsets, and an unprepared model's gap constants, live
// in arrays of this length on its stack.
const walkChunk = 128

// GenerateInto draws one dataset into v (see randmodel.InPlaceGenerator),
// laying its columns out back to back in v.Arena: column i is a
// capacity-capped subslice of it, so a later append to one column cannot
// overwrite the next. The arena is sized once for the model's expected
// occurrences with room to spare, so a worker's replicates share one
// allocation. The random stream consumed is identical to Generate's, so for
// a fixed seed the pooled and fresh paths produce the same dataset,
// prepared or not.
//
// Column i draws one uniform per occurrence plus one that ends the column,
// through stats.UniformBlock.AppendColumns, whose certified gaps are
// exactly the integers of the reference floor(log(u)/log1p(-f)). The
// uniforms come off one stats.UniformBlock for the whole replicate, which
// leaves r just after the last one used. An unprepared model builds its
// gap constants a chunk of columns at a time on the stack. A frequency
// that is not above 0 (NaN included) gives an empty column and one at or
// above 1 a full column, neither drawing; Validate rejects every value
// outside [0, 1].
func (m IndependentModel) GenerateInto(r *stats.RNG, v *dataset.Vertical) {
	v.Reuse(m.T, len(m.Freqs))
	if m.T == 0 {
		return
	}
	room := m.room
	if m.gaps == nil {
		room = arenaRoom(m.T, m.Freqs)
	}
	if cap(v.Arena) < room {
		v.Arena = make([]uint32, 0, room)
	}
	arena := v.Arena[:0]
	var b stats.UniformBlock
	b.Reset(r)
	var ends [walkChunk]int
	var local [walkChunk]stats.GeometricGap
	for c0 := 0; c0 < len(m.Freqs); c0 += walkChunk {
		freqs := m.Freqs[c0:min(c0+walkChunk, len(m.Freqs))]
		gaps := local[:len(freqs)]
		if m.gaps != nil {
			gaps = m.gaps[c0 : c0+len(freqs)]
		} else {
			for j, f := range freqs {
				gaps[j] = stats.NewGeometricGap(f)
			}
		}
		start := len(arena)
		arena = b.AppendColumns(arena, ends[:len(freqs)], m.T, gaps)
		for j, end := range ends[:len(freqs)] {
			v.Tids[c0+j] = arena[start:end:end]
			start = end
		}
	}
	b.Release()
	// A walk that outgrew the arena moved it; the columns laid out before
	// the move still read the old array, whose tids were copied, not
	// changed.
	v.Arena = arena
}

// arenaRoom is the arena GenerateInto reserves for a model's replicate:
// its expected occurrence count sum_i T*min(f_i, 1) (NaN and f_i <= 0
// count 0) plus eight standard deviations' worth — the count is a sum of
// independent binomials, whose standard deviation is at most the square
// root of its mean — and slack for the walk's four-lane stores, so a
// replicate outgrows it with negligible probability. A walk that does
// outgrow it appends, which stays correct.
func arenaRoom(t int, freqs []float64) int {
	mean := 0.0
	for _, f := range freqs {
		if f > 0 {
			mean += min(f, 1)
		}
	}
	mean *= float64(t)
	return int(min(mean+8*math.Sqrt(mean)+64, math.MaxInt32))
}
