package randmodel

import (
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// Generation benchmarks: Algorithm 1 draws Delta datasets per run, so
// generation cost bounds the whole methodology's wall clock.

func benchModel() IndependentModel {
	z := stats.FitPowerLaw(2000, 1e-5, 0.3, 8)
	return IndependentModel{T: 50000, Freqs: z.Frequencies()}
}

func BenchmarkGenerateSkipSampling(b *testing.B) {
	m := benchModel()
	r := stats.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Generate(r.Split())
	}
}

// BenchmarkGenerateNaive is the O(t*n) baseline the geometric-skip
// generator replaces.
func BenchmarkGenerateNaive(b *testing.B) {
	m := benchModel()
	r := stats.NewRNG(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rr := r.Split()
		tx := make([][]uint32, m.T)
		for item, f := range m.Freqs {
			for tid := 0; tid < m.T; tid++ {
				if rr.Float64() < f {
					tx[tid] = append(tx[tid], uint32(item))
				}
			}
		}
		_ = tx
	}
}

func BenchmarkSwapRandomizeChain(b *testing.B) {
	m := benchModel()
	d := m.Generate(stats.NewRNG(3)).Horizontal()
	r := stats.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SwapRandomize(d, 4, r)
	}
}

// BenchmarkSwapGenerateInto times the pooled swap-replicate path the Monte
// Carlo engine runs (SwapModel.GenerateInto at the default 8 proposals per
// occurrence) and reports the chain cost per proposal, on two bases that
// weigh the membership test differently:
//
//   - Retail8, Retail-shaped (the synth Retail/8 profile's universe,
//     frequency range and mean length: n=16470, t=88162/8=11020, mean
//     length 10.2): short, sparse transactions, so most tests ask about an
//     absent item and the transaction signature answers them;
//   - Pumsb16, swapLongBase (Pumsb*/16-shaped, mean length ~50): long
//     transactions whose 64-bit signatures are nearly saturated, so most
//     tests scan — the signature's worst case.
func BenchmarkSwapGenerateInto(b *testing.B) {
	for _, c := range []struct {
		name string
		base func() *dataset.Dataset
	}{
		{"Retail8", func() *dataset.Dataset {
			z := stats.FitPowerLaw(16470, 1.13e-05, 0.57, 10.2)
			im := IndependentModel{T: 88162 / 8, Freqs: z.Frequencies()}
			return im.Generate(stats.NewRNG(7)).Horizontal()
		}},
		{"Pumsb16", swapLongBase},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := &SwapModel{Base: c.base()}
			v := &dataset.Vertical{}
			m.GenerateInto(stats.NewRNG(8), v) // build the shared snapshot, warm the pool
			proposals := m.proposals(len(m.prepare().occTid))
			r := stats.NewRNG(9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.GenerateInto(r.Split(), v)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*proposals), "ns/proposal")
		})
	}
}

// BenchmarkIndependentGenerateInto times the pooled independence-replicate
// path the Monte Carlo engine runs (a prepared IndependentModel's
// GenerateInto) and reports the cost per generated occurrence, on two
// nulls that weigh per-draw and per-column cost differently:
//
//   - Retail8, the synth Retail/8 null (n=16470, t=88162/8=11020, mean
//     length 10.2): most of its columns hold a handful of occurrences, so
//     every column's start and end weighs;
//   - Bms1_4, the synth Bms1/4 null (n=497, t=59602/4=14900, mean length
//     1.95), fitted here because importing synth would be an import cycle:
//     few, long columns, so the per-draw walk dominates.
func BenchmarkIndependentGenerateInto(b *testing.B) {
	for _, c := range []struct {
		name string
		m    IndependentModel
	}{
		{"Retail8", IndependentModel{T: 88162 / 8, Freqs: stats.FitPowerLaw(16470, 1.13e-05, 0.57, 10.2).Frequencies()}},
		{"Bms1_4", IndependentModel{T: 59602 / 4, Freqs: stats.FitPowerLaw(497, 1.68e-05, 0.06, 1.95).Frequencies()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := c.m.Prepare()
			v := &dataset.Vertical{}
			r := stats.NewRNG(10)
			m.GenerateInto(r.Split(), v) // grow the pooled columns
			occ := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.GenerateInto(r.Split(), v)
				for _, col := range v.Tids {
					occ += len(col)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(occ), "ns/occurrence")
		})
	}
}

func BenchmarkVerticalToHorizontal(b *testing.B) {
	m := benchModel()
	v := m.Generate(stats.NewRNG(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Horizontal()
	}
}

var sinkSupport int

func BenchmarkSupportQuery(b *testing.B) {
	m := benchModel()
	v := m.Generate(stats.NewRNG(6))
	query := []uint32{0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSupport = v.Support(query)
	}
}
