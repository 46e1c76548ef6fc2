package stats_test

import (
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

// TestGenerateIntoSameWithoutLogKernel: the Retail/8 and Bms1/4 null
// replicates of BenchmarkIndependentGenerateInto have the same columns and
// leave the RNG in the same place under all four combinations of
// UniformBlock.fill's logs (AVX2 kernel or fastLog loop) and
// AppendColumns's walk (AVX2 kernel or Go walk). On a CPU without the
// kernels every run takes the Go paths.
func TestGenerateIntoSameWithoutLogKernel(t *testing.T) {
	type path struct {
		name      string
		log, walk bool
	}
	paths := []path{{"log+walk kernels", true, true}, {"log kernel", true, false}, {"walk kernel", false, true}, {"no kernel", false, false}}
	for _, c := range []struct {
		name string
		m    randmodel.IndependentModel
	}{
		{"Retail8", randmodel.IndependentModel{T: 88162 / 8, Freqs: stats.FitPowerLaw(16470, 1.13e-05, 0.57, 10.2).Frequencies()}},
		{"Bms1_4", randmodel.IndependentModel{T: 59602 / 4, Freqs: stats.FitPowerLaw(497, 1.68e-05, 0.06, 1.95).Frequencies()}},
	} {
		m := c.m.Prepare()
		for seed := uint64(0); seed < 8; seed++ {
			var want *dataset.Vertical
			var wantNext uint64
			for _, p := range paths {
				v, r := &dataset.Vertical{}, stats.NewRNG(seed)
				var restore []func()
				if !p.log {
					restore = append(restore, stats.LogKernelOff())
				}
				if !p.walk {
					restore = append(restore, stats.WalkKernelOff())
				}
				m.GenerateInto(r, v)
				for _, f := range restore {
					f()
				}
				next := r.Uint64()
				if want == nil {
					want, wantNext = v, next
					continue
				}
				if len(v.Tids) != len(want.Tids) {
					t.Fatalf("%s seed %d: %d columns with the %s, %d with the %s", c.name, seed, len(v.Tids), p.name, len(want.Tids), paths[0].name)
				}
				for i := range v.Tids {
					a, b := v.Tids[i], want.Tids[i]
					if len(a) != len(b) {
						t.Fatalf("%s seed %d: column %d has %d tids with the %s, %d with the %s", c.name, seed, i, len(a), p.name, len(b), paths[0].name)
					}
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("%s seed %d: column %d tid %d is %d with the %s, %d with the %s", c.name, seed, i, j, a[j], p.name, b[j], paths[0].name)
						}
					}
				}
				if next != wantNext {
					t.Fatalf("%s seed %d: the RNG stands elsewhere with the %s than with the %s", c.name, seed, p.name, paths[0].name)
				}
			}
		}
	}
}
