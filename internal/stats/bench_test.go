package stats

import "testing"

// Micro-benchmarks for the hot statistical primitives: exact tails are
// called once per itemset in Procedure 1 and once per ladder level in
// Procedure 2; geometric gaps dominate random dataset generation.

func BenchmarkBinomialUpperTail(b *testing.B) {
	bin := Binomial{N: 1000000, P: 1e-4}
	for i := 0; i < b.N; i++ {
		bin.UpperTail(150)
	}
}

func BenchmarkPoissonUpperTail(b *testing.B) {
	p := Poisson{Lambda: 2.5}
	for i := 0; i < b.N; i++ {
		p.UpperTail(15)
	}
}

// BenchmarkGeometricGapColumn fills one column of t transactions with an
// item of frequency f by geometric skips off a uniform block, the
// independence null model's column walk.
func BenchmarkGeometricGapColumn(b *testing.B) {
	const t = 100000
	gaps := []GeometricGap{NewGeometricGap(1e-3)}
	var blk UniformBlock
	blk.Reset(NewRNG(2))
	var col []uint32
	var ends [1]int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col = blk.AppendColumns(col[:0], ends[:], t, gaps)
	}
	blk.Release()
}

// BenchmarkUniformBlockFill draws blocks of uniforms with their table
// logs, the logs from the AVX2 kernel (where the CPU has it) and from the
// fastLog loop.
func BenchmarkUniformBlockFill(b *testing.B) {
	for _, path := range []struct {
		name   string
		kernel bool
	}{{"kernel", true}, {"go", false}} {
		b.Run(path.name, func(b *testing.B) {
			if path.kernel && !useLogKernel {
				b.Skip("no AVX2 log kernel on this CPU")
			}
			if !path.kernel {
				defer LogKernelOff()()
			}
			var blk UniformBlock
			blk.Reset(NewRNG(6))
			for i := 0; i < b.N; i++ {
				blk.fill()
			}
			blk.Release()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockSize), "ns/uniform")
		})
	}
}

// BenchmarkColumnWalk walks every column of one null replicate per
// iteration (AppendColumns over prepared gaps into a reused arena) with the
// AVX2 walk kernel, where the CPU has it, and with the Go walk, on the
// Retail/8 and Bms1/4 null frequency vectors of
// BenchmarkIndependentGenerateInto. Every column's frequency is in (0, 1),
// so a walk takes one uniform per success and one per column; ns/uniform
// includes the block fills (BenchmarkUniformBlockFill times those alone).
func BenchmarkColumnWalk(b *testing.B) {
	for _, c := range []struct {
		name  string
		t     int
		freqs []float64
	}{
		{"Retail8", 88162 / 8, FitPowerLaw(16470, 1.13e-05, 0.57, 10.2).Frequencies()},
		{"Bms1_4", 59602 / 4, FitPowerLaw(497, 1.68e-05, 0.06, 1.95).Frequencies()},
	} {
		gaps := make([]GeometricGap, len(c.freqs))
		for i, f := range c.freqs {
			gaps[i] = NewGeometricGap(f)
		}
		ends := make([]int, len(gaps))
		for _, path := range []struct {
			name   string
			kernel bool
		}{{"kernel", true}, {"go", false}} {
			b.Run(c.name+"/"+path.name, func(b *testing.B) {
				if path.kernel && !useWalkKernel {
					b.Skip("no AVX2 walk kernel on this CPU")
				}
				if !path.kernel {
					defer WalkKernelOff()()
				}
				var blk UniformBlock
				blk.Reset(NewRNG(7))
				dst := blk.AppendColumns(nil, ends, c.t, gaps)
				dst = make([]uint32, 0, 2*len(dst))
				uniforms := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = blk.AppendColumns(dst[:0], ends, c.t, gaps)
					uniforms += len(dst) + len(gaps)
				}
				blk.Release()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uniforms), "ns/uniform")
			})
		}
	}
}

// BenchmarkNaiveBernoulliColumn is the baseline the gap walk replaces:
// one coin flip per transaction.
func BenchmarkNaiveBernoulliColumn(b *testing.B) {
	r := NewRNG(3)
	const t = 100000
	const f = 1e-3
	for i := 0; i < b.N; i++ {
		count := 0
		for j := 0; j < t; j++ {
			if r.Float64() < f {
				count++
			}
		}
		_ = count
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(4)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(5)
	for i := 0; i < b.N; i++ {
		r.Intn(1000003)
	}
}

// powerLawSink keeps BenchmarkFitPowerLaw's fits live.
var powerLawSink TruncatedPowerLaw

// BenchmarkFitPowerLaw fits the Retail, Kosarak and Bms1 profiles'
// frequency vectors (synth's Table 1 arguments) and reports the exact sums
// over all n ranks each fit takes beside its time; the plain bisection
// takes 41.
func BenchmarkFitPowerLaw(b *testing.B) {
	for _, c := range []struct {
		name                  string
		n                     int
		fmin, fmax, targetSum float64
	}{
		{"Retail", 16470, 1.13e-05, 0.57, 10.2},
		{"Kosarak", 41270, 1.01e-06, 0.61, 7.8},
		{"Bms1", 497, 1.68e-05, 0.06, 1.95},
	} {
		b.Run(c.name, func(b *testing.B) {
			sums := 0
			for i := 0; i < b.N; i++ {
				var s int
				powerLawSink, s = fitPowerLaw(c.n, c.fmin, c.fmax, c.targetSum)
				sums += s
			}
			b.ReportMetric(float64(sums)/float64(b.N), "exact_sums/op")
		})
	}
}
