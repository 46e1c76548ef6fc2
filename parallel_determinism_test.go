package sigfim

import (
	"reflect"
	"testing"

	"sigfim/internal/stats"
)

// plantedTransactions builds a deterministic dataset with i.i.d. background
// noise and a planted pair, dense enough that the significance pipeline finds
// a finite s*.
func plantedTransactions(seed uint64, n, t int, p float64) [][]uint32 {
	r := stats.NewRNG(seed)
	tx := make([][]uint32, t)
	for i := range tx {
		for it := 0; it < n; it++ {
			if r.Bernoulli(p) {
				tx[i] = append(tx[i], uint32(it))
			}
		}
		if i%3 == 0 {
			tx[i] = append(tx[i], 2, 5)
		}
	}
	return tx
}

// TestFPGrowthGoldenWorkerIdentity pins, on the committed golden fixture,
// that mining with -algo fpgrowth is bit-identical — values and order — for
// Workers 1, 2, 4, and 8 (the serial reference miner ignores Workers), and
// that a Significant config naming FP-Growth agrees with the default one.
func TestFPGrowthGoldenWorkerIdentity(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatalf("open golden fixture: %v", err)
	}

	serial, err := d.Mine(MineOptions{MinSupport: 5, MaxLen: 3, Algorithm: AlgoFPGrowth, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("empty FP-Growth output on golden fixture; test is vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := d.Mine(MineOptions{MinSupport: 5, MaxLen: 3, Algorithm: AlgoFPGrowth, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("fpgrowth workers=%d: output differs from serial", workers)
		}
	}

	cfg := goldenConfig()
	cfg.Algorithm = AlgoFPGrowth
	cfg.Workers = 1
	rep1, err := d.Significant(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	rep8, err := d.Significant(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep8) {
		t.Fatalf("fpgrowth Significant differs between workers=1 and workers=8:\n%+v\nvs\n%+v", rep1, rep8)
	}
	def, err := d.Significant(2, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.SMin != def.SMin || rep1.SStar != def.SStar || rep1.NumSignificant != def.NumSignificant {
		t.Fatalf("fpgrowth pipeline (s_min=%d, s*=%d, Q=%d) disagrees with default (s_min=%d, s*=%d, Q=%d)",
			rep1.SMin, rep1.SStar, rep1.NumSignificant, def.SMin, def.SStar, def.NumSignificant)
	}
}

// TestWorkerCountDeterminism pins the engine's central guarantee: for a fixed
// seed, FindSMin and Significant return identical reports at Workers=1 and
// Workers=8. Per-goroutine RNGs are derived from per-replicate seeds and all
// parallel reductions merge in deterministic order, so the worker count must
// never leak into results.
func TestWorkerCountDeterminism(t *testing.T) {
	d, err := FromTransactions(plantedTransactions(99, 40, 360, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Delta: 80, Seed: 12345, Correction: CorrectionBY}

	cfg1, cfg8 := base, base
	cfg1.Workers = 1
	cfg8.Workers = 8

	s1, err := d.FindSMin(2, &cfg1)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := d.FindSMin(2, &cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s8 {
		t.Fatalf("FindSMin: workers=1 gives %d, workers=8 gives %d", s1, s8)
	}

	r1, err := d.Significant(2, &cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := d.Significant(2, &cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Infinite {
		t.Fatal("expected a finite s* on the planted dataset; determinism test is vacuous")
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("Significant reports differ between workers=1 and workers=8:\n%+v\nvs\n%+v", r1, r8)
	}
}
