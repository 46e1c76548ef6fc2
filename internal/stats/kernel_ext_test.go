package stats_test

import (
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

// TestGenerateIntoSameWithoutLogKernel: the Retail/8 and Bms1/4 null
// replicates of BenchmarkIndependentGenerateInto have the same columns and
// leave the RNG in the same place whether UniformBlock.fill takes its logs
// from the AVX2 kernel or from the fastLog loop. On a CPU without the
// kernel both runs take the loop.
func TestGenerateIntoSameWithoutLogKernel(t *testing.T) {
	for _, c := range []struct {
		name string
		m    randmodel.IndependentModel
	}{
		{"Retail8", randmodel.IndependentModel{T: 88162 / 8, Freqs: stats.FitPowerLaw(16470, 1.13e-05, 0.57, 10.2).Frequencies()}},
		{"Bms1_4", randmodel.IndependentModel{T: 59602 / 4, Freqs: stats.FitPowerLaw(497, 1.68e-05, 0.06, 1.95).Frequencies()}},
	} {
		m := c.m.Prepare()
		for seed := uint64(0); seed < 8; seed++ {
			on, off := &dataset.Vertical{}, &dataset.Vertical{}
			ron, roff := stats.NewRNG(seed), stats.NewRNG(seed)
			m.GenerateInto(ron, on)
			restore := stats.LogKernelOff()
			m.GenerateInto(roff, off)
			restore()
			if len(on.Tids) != len(off.Tids) {
				t.Fatalf("%s seed %d: %d columns with the kernel, %d without", c.name, seed, len(on.Tids), len(off.Tids))
			}
			for i := range on.Tids {
				a, b := on.Tids[i], off.Tids[i]
				if len(a) != len(b) {
					t.Fatalf("%s seed %d: column %d has %d tids with the kernel, %d without", c.name, seed, i, len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("%s seed %d: column %d tid %d is %d with the kernel, %d without", c.name, seed, i, j, a[j], b[j])
					}
				}
			}
			if ron.Uint64() != roff.Uint64() {
				t.Fatalf("%s seed %d: the RNG stands elsewhere with the kernel than without", c.name, seed)
			}
		}
	}
}
