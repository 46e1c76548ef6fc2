package mining

import (
	"reflect"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// plantedDataset builds a deterministic synthetic dataset: n items placed
// i.i.d. with probability p over t transactions, plus a planted itemset
// occurring in every plantEvery-th transaction — structure for the miners to
// find at high support.
func plantedDataset(seed uint64, n, t int, p float64, planted []uint32, plantEvery int) *dataset.Dataset {
	r := stats.NewRNG(seed)
	tx := make([][]uint32, t)
	for i := range tx {
		for it := 0; it < n; it++ {
			if r.Bernoulli(p) {
				tx[i] = append(tx[i], uint32(it))
			}
		}
		if plantEvery > 0 && i%plantEvery == 0 {
			tx[i] = append(tx[i], planted...)
		}
	}
	return dataset.MustNew(n, tx)
}

// crossAlgoCases is the shared table for the equivalence tests: datasets with
// different shapes (dense, sparse, tiny universe) crossed with (k, s) grids.
var crossAlgoCases = []struct {
	name string
	gen  func() *dataset.Dataset
	ks   []int
	sups []int
}{
	{
		name: "dense",
		gen: func() *dataset.Dataset {
			return plantedDataset(11, 30, 400, 0.20, []uint32{3, 7, 11}, 4)
		},
		ks:   []int{1, 2, 3},
		sups: []int{10, 40, 90},
	},
	{
		name: "sparse",
		gen: func() *dataset.Dataset {
			return plantedDataset(23, 120, 600, 0.02, []uint32{5, 50, 100}, 6)
		},
		ks:   []int{2, 3},
		sups: []int{2, 5, 20},
	},
	{
		name: "tiny-universe",
		gen: func() *dataset.Dataset {
			return plantedDataset(37, 8, 200, 0.45, []uint32{0, 1}, 3)
		},
		ks:   []int{1, 2, 3, 4},
		sups: []int{1, 25, 120},
	},
}

// TestCrossAlgorithmEquivalenceAcrossWorkers mines the same datasets with
// every algorithm at Workers 1, 4, and 8 and asserts identical sorted result
// sets and counts; serial FP-Growth anchors the comparison.
func TestCrossAlgorithmEquivalenceAcrossWorkers(t *testing.T) {
	for _, tc := range crossAlgoCases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.gen()
			v := d.Vertical()
			for _, k := range tc.ks {
				for _, s := range tc.sups {
					want, err := Mine(d.Vertical(), Options{K: k, MinSupport: s, Algorithm: FPGrowth, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4, 8} {
						for _, algo := range allAlgorithms {
							got, err := Mine(v, Options{
								K: k, MinSupport: s, Algorithm: algo, Workers: workers,
							})
							if err != nil {
								t.Fatalf("k=%d s=%d %v workers=%d: %v", k, s, algo, workers, err)
							}
							if !resultsEqual(got, append([]Result(nil), want...)) {
								t.Fatalf("k=%d s=%d %v workers=%d: %d results, fpgrowth has %d",
									k, s, algo, workers, len(got), len(want))
							}
							if got := CumulativeQ(SupportHistogramAlgoScratch(v, k, s, workers, algo, nil))[0]; got != int64(len(want)) {
								t.Fatalf("count(k=%d,s=%d,%v,w=%d) = %d, want %d", k, s, algo, workers, got, len(want))
							}
						}
					}
				}
			}
		})
	}
}

// TestParallelMatchesSerialExactly pins the stronger guarantee the engine is
// built around: for a fixed algorithm, parallel output equals serial output
// including order, for every worker count — the stream at fixed k and Mine
// at all sizes.
func TestParallelMatchesSerialExactly(t *testing.T) {
	for _, tc := range crossAlgoCases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.gen()
			v := d.Vertical()
			for _, algo := range allAlgorithms {
				for _, k := range tc.ks {
					for _, s := range tc.sups {
						want := collect(v, k, s, 1, algo, nil)
						for _, workers := range []int{2, 3, 8} {
							if got := collect(v, k, s, workers, algo, nil); !reflect.DeepEqual(got, want) {
								t.Fatalf("%v k=%d s=%d w=%d: parallel order differs from serial", algo, k, s, workers)
							}
						}
					}
				}
				want, err := Mine(d.Vertical(), Options{MinSupport: 5, MaxLen: 3, Algorithm: algo, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatalf("%v: empty all-sizes output, test is vacuous", algo)
				}
				for _, workers := range []int{2, 8} {
					got, err := Mine(d.Vertical(), Options{MinSupport: 5, MaxLen: 3, Algorithm: algo, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v all sizes w=%d: parallel order differs from serial", algo, workers)
					}
				}
			}
		})
	}
}

// TestAlgoDispatchers checks the algorithm-generic stream and histogram entry
// points: every algorithm must produce the same itemset collection and the
// exact same support histogram for every worker count.
func TestAlgoDispatchers(t *testing.T) {
	d := plantedDataset(71, 20, 300, 0.15, []uint32{1, 4, 9}, 5)
	v := d.Vertical()
	for _, k := range []int{2, 3} {
		for _, s := range []int{5, 30} {
			wantHist := SupportHistogramAlgoScratch(v, k, s, 1, Auto, nil)
			want := mustMine(t, v, Options{K: k, MinSupport: s, Workers: 1})
			for _, algo := range allAlgorithms {
				for _, workers := range []int{1, 4} {
					if got := SupportHistogramAlgoScratch(v, k, s, workers, algo, nil); !reflect.DeepEqual(got, wantHist) {
						t.Fatalf("SupportHistogramAlgoScratch(k=%d,s=%d,%v,w=%d) differs", k, s, algo, workers)
					}
					got := collect(v, k, s, workers, algo, nil)
					if !resultsEqual(got, append([]Result(nil), want...)) {
						t.Fatalf("VisitKAlgoScratch(k=%d,s=%d,%v,w=%d): %d results, want %d",
							k, s, algo, workers, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestCountAndHistogramParallel checks the parallel counting reduction
// against the serial one on random datasets (property-style, many shapes):
// the histogram, and the count read off it, must not depend on the worker
// count.
func TestCountAndHistogramParallel(t *testing.T) {
	r := stats.NewRNG(404)
	for trial := 0; trial < 25; trial++ {
		v := randomDataset(r, 12, 60).Vertical()
		for k := 1; k <= 3; k++ {
			for _, s := range []int{1, 2, 6} {
				want := SupportHistogramAlgoScratch(v, k, s, 1, Auto, nil)
				wantCount := CumulativeQ(want)[0]
				for _, algo := range allAlgorithms {
					for _, workers := range []int{2, 5} {
						got := SupportHistogramAlgoScratch(v, k, s, workers, algo, nil)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d histogram(k=%d,s=%d,%v,w=%d) differs", trial, k, s, algo, workers)
						}
						if c := CumulativeQ(got)[0]; c != wantCount {
							t.Fatalf("trial %d count(k=%d,s=%d,%v,w=%d) = %d, want %d", trial, k, s, algo, workers, c, wantCount)
						}
					}
				}
			}
		}
	}
}

// TestVisitKParallelOrder asserts the parallel stream replays emissions in
// exactly the serial stream's order on a dataset dense enough to take the
// eclat path.
func TestVisitKParallelOrder(t *testing.T) {
	d := plantedDataset(55, 25, 500, 0.25, []uint32{2, 9, 17}, 5)
	v := d.Vertical()
	for _, k := range []int{2, 3} {
		for _, s := range []int{20, 60} {
			serial := collect(v, k, s, 1, Auto, nil)
			par := collect(v, k, s, 4, Auto, nil)
			if len(serial) == 0 {
				t.Fatalf("k=%d s=%d: empty mining output, test is vacuous", k, s)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("k=%d s=%d: parallel stream order differs from serial", k, s)
			}
		}
	}
}
