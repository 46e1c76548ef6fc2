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
// occurrence) on a Retail-shaped base: the synth Retail/8 profile's
// universe, frequency range and mean length (n=16470, t=88162/8=11020,
// mean length 10.2). It reports the chain cost per proposal.
func BenchmarkSwapGenerateInto(b *testing.B) {
	z := stats.FitPowerLaw(16470, 1.13e-05, 0.57, 10.2)
	im := IndependentModel{T: 88162 / 8, Freqs: z.Frequencies()}
	m := &SwapModel{Base: im.Generate(stats.NewRNG(7)).Horizontal()}
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
