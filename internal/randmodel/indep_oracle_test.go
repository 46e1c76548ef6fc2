package randmodel

import (
	"math"
	"reflect"
	"testing"

	"sigfim/internal/bitset"
	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// referenceGenerate is the independence-model generator as it stood before
// the certified gap fast path: per column, recompute log1p(-f) and walk the
// occurrences with gap = int(floor(log(u)/logq)). It is the oracle that
// IndependentModel.GenerateInto must match dataset for dataset and draw for
// draw. It shares no code with the production path.
func referenceGenerate(m IndependentModel, r *stats.RNG) *dataset.Vertical {
	v := &dataset.Vertical{NumTransactions: m.T, Tids: make([]bitset.TidList, len(m.Freqs))}
	for i, f := range m.Freqs {
		if f <= 0 || m.T == 0 {
			continue
		}
		col := bitset.TidList{}
		if f >= 1 {
			for pos := 0; pos < m.T; pos++ {
				col = append(col, uint32(pos))
			}
		} else {
			logq := math.Log1p(-f)
			for pos := -1; ; {
				pos += int(math.Floor(math.Log(r.Float64Open())/logq)) + 1
				if pos >= m.T {
					break
				}
				col = append(col, uint32(pos))
			}
		}
		v.Tids[i] = col
	}
	return v
}

// retailNullModel is the independence null of the synth Retail/8 profile:
// its universe, frequency range and mean length (n=16470, t=88162/8=11020,
// mean length 10.2), plus one f=0 and one f=1 item.
func retailNullModel() IndependentModel {
	z := stats.FitPowerLaw(16470, 1.13e-05, 0.57, 10.2)
	return IndependentModel{T: 88162 / 8, Freqs: append(z.Frequencies(), 0, 1)}
}

// sameVertical reports whether two layouts hold the same tids, treating nil
// and empty columns alike.
func sameVertical(a, b *dataset.Vertical) bool {
	if a.NumTransactions != b.NumTransactions || len(a.Tids) != len(b.Tids) {
		return false
	}
	for i := range a.Tids {
		if len(a.Tids[i]) != len(b.Tids[i]) || (len(a.Tids[i]) > 0 && !reflect.DeepEqual(a.Tids[i], b.Tids[i])) {
			return false
		}
	}
	return true
}

// TestGenerateIntoMatchesReferenceLoop: on a Retail/8-shaped null, prepared
// pooled generation reproduces the reference loop's dataset and leaves the
// stream at the same point, seed after seed; every tenth seed also checks
// unprepared GenerateInto and fresh Generate.
func TestGenerateIntoMatchesReferenceLoop(t *testing.T) {
	m := retailNullModel()
	prepared := m.Prepare()
	seeds := uint64(200)
	if testing.Short() || raceEnabled {
		// The race build is ~15x slower here and checks nothing this
		// single-goroutine comparison needs; the plain run covers 200 seeds.
		seeds = 20
	}
	pooled, unprepared := &dataset.Vertical{}, &dataset.Vertical{}
	for seed := uint64(1); seed <= seeds; seed++ {
		rw := stats.NewRNG(seed)
		want := referenceGenerate(m, rw)
		next := rw.Uint64()
		check := func(name string, gen func(r *stats.RNG) *dataset.Vertical) {
			r := stats.NewRNG(seed)
			if !sameVertical(gen(r), want) {
				t.Fatalf("seed %d: %s differs from the reference loop", seed, name)
			}
			if r.Uint64() != next {
				t.Fatalf("seed %d: %s consumed a different number of draws", seed, name)
			}
		}
		check("prepared GenerateInto", func(r *stats.RNG) *dataset.Vertical { prepared.GenerateInto(r, pooled); return pooled })
		if seed%10 == 0 {
			check("GenerateInto", func(r *stats.RNG) *dataset.Vertical { m.GenerateInto(r, unprepared); return unprepared })
			check("Generate", m.Generate)
		}
	}
}

// TestTinyFrequencyColumnsStayEmpty pins the int-overflow fix: at f below
// ~4e-18 the reference gap exceeds the int range, and the old conversion
// wrapped it into a column holding every row plus tid T.
func TestTinyFrequencyColumnsStayEmpty(t *testing.T) {
	for _, f := range []float64{1e-19, 1e-300} {
		m := IndependentModel{T: 10, Freqs: []float64{f}}
		if err := m.Validate(); err != nil {
			t.Fatalf("f=%v: %v", f, err)
		}
		for seed := uint64(0); seed < 50; seed++ {
			if col := m.Prepare().Generate(stats.NewRNG(seed)).Tids[0]; len(col) != 0 {
				t.Fatalf("f=%v seed %d: column %v, want empty", f, seed, col)
			}
		}
	}
}

// TestPrepareIsIdempotent: Prepare builds the table once, and the package
// helper prepares independence models only.
func TestPrepareIsIdempotent(t *testing.T) {
	m := IndependentModel{T: 10, Freqs: []float64{0.2, 0.5}}.Prepare()
	again := m.Prepare()
	if &again.gaps[0] != &m.gaps[0] {
		t.Error("preparing a prepared model rebuilt its table")
	}
	if got, ok := Prepare(IndependentModel{T: 10, Freqs: []float64{0.2}}).(IndependentModel); !ok || got.gaps == nil {
		t.Error("Prepare left an IndependentModel unprepared")
	}
	swap := &SwapModel{}
	if Prepare(swap) != Model(swap) {
		t.Error("Prepare replaced a SwapModel")
	}
}

// TestGenerateIntoAtBlockEdges: GenerateInto draws its uniforms in blocks
// and rewinds the stream to the last one it used. On a small null, seeds
// whose replicate takes a block's worth of draws minus one, exactly, or
// plus one (and the same around two blocks) must reproduce the reference
// loop's dataset and leave the stream where it does.
func TestGenerateIntoAtBlockEdges(t *testing.T) {
	const block = 256 // the draws stats.UniformBlock takes at a time
	freqs := make([]float64, 32)
	for i := range freqs {
		freqs[i] = 0.04 + 0.01*float64(i%8)
	}
	// draws counts the uniforms the reference loop takes for a dataset: one
	// per occurrence plus one ending each column (every f is in (0, 1)).
	draws := func(v *dataset.Vertical) int {
		n := len(v.Tids)
		for _, col := range v.Tids {
			n += len(col)
		}
		return n
	}
	pooled := &dataset.Vertical{}
	// The heights put the mean draw count (32 + 2.4T) near the targets.
	for _, c := range []struct {
		t      int
		blocks int
	}{{100, 1}, {200, 2}} {
		m := IndependentModel{T: c.t, Freqs: freqs}
		targets := map[int]bool{}
		for d := c.blocks*block - 1; d <= c.blocks*block+1; d++ {
			targets[d] = false
		}
		left := len(targets)
		for seed := uint64(0); seed < 20000 && left > 0; seed++ {
			rw := stats.NewRNG(seed)
			want := referenceGenerate(m, rw)
			d := draws(want)
			if found, ok := targets[d]; !ok || found {
				continue
			}
			targets[d] = true
			left--
			next := rw.Uint64()
			for name, mm := range map[string]IndependentModel{"prepared": m.Prepare(), "unprepared": m} {
				r := stats.NewRNG(seed)
				mm.GenerateInto(r, pooled)
				if !sameVertical(pooled, want) {
					t.Fatalf("T=%d seed %d (%d draws): %s GenerateInto differs from the reference loop", c.t, seed, d, name)
				}
				if r.Uint64() != next {
					t.Fatalf("T=%d seed %d (%d draws): %s GenerateInto left the stream elsewhere", c.t, seed, d, name)
				}
			}
		}
		for d, found := range targets {
			if !found {
				t.Errorf("T=%d: no seed below 20000 takes %d draws", c.t, d)
			}
		}
	}
}

// TestIndependentGenerateIntoZeroAllocs: a warm prepared model draws a
// replicate into a grown Vertical without allocating, so the uniform block
// GenerateInto keeps on its stack never moves to the heap. Every run
// re-draws one seed, so column capacity is already there.
func TestIndependentGenerateIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	m := retailNullModel().Prepare()
	v := &dataset.Vertical{}
	start := *stats.NewRNG(3)
	r := new(stats.RNG)
	replicate := func() {
		*r = start
		m.GenerateInto(r, v)
	}
	replicate()
	if allocs := testing.AllocsPerRun(5, replicate); allocs != 0 {
		t.Fatalf("warm prepared GenerateInto allocates %v times, want 0", allocs)
	}
}
