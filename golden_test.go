package sigfim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sigfim/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden end-to-end fixtures")

// The golden test runs the full public Significant pipeline on a small
// committed FIMI fixture and compares the complete report — s_min, s*, the
// ladder, the significant family, and the BY baseline — against a golden
// file. It catches public-API regressions (changed thresholds, broken
// determinism, field renames) without relying on the examples.
//
// Regenerate after an intentional behavior change with:
//
//	go test -run TestGoldenSignificantReport -update .

const (
	goldenDataPath   = "testdata/golden_input.dat"
	goldenReportPath = "testdata/golden_report.json"
)

// goldenTransactions deterministically generates the fixture's transactions:
// background noise plus a planted pair and a planted triple.
func goldenTransactions() [][]uint32 {
	r := stats.NewRNG(314159)
	const n, t = 60, 500
	tx := make([][]uint32, t)
	for i := range tx {
		for it := 0; it < n; it++ {
			if r.Bernoulli(0.04) {
				tx[i] = append(tx[i], uint32(it))
			}
		}
		if i%4 == 0 {
			tx[i] = append(tx[i], 7, 23)
		}
		if i%6 == 0 {
			tx[i] = append(tx[i], 11, 30, 44)
		}
	}
	return tx
}

func goldenConfig() *Config {
	return &Config{Delta: 120, Seed: 9, Correction: CorrectionBY}
}

func TestGoldenSignificantReport(t *testing.T) {
	if *updateGolden {
		d, err := FromTransactions(goldenTransactions())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenDataPath), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(goldenDataPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteFIMI(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	d, err := OpenFIMI(goldenDataPath)
	if err != nil {
		t.Fatalf("open fixture (regenerate with -update): %v", err)
	}
	rep, err := d.Significant(2, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Infinite || rep.NumSignificant == 0 {
		t.Fatalf("golden run found no significant family (s* infinite=%v): fixture is vacuous", rep.Infinite)
	}

	gotJSON, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenReportPath, append(gotJSON, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden report rewritten: s_min=%d s*=%d count=%d lambda=%g",
			rep.SMin, rep.SStar, rep.NumSignificant, rep.Lambda)
		return
	}

	wantJSON, err := os.ReadFile(goldenReportPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	// Compare through the JSON round trip so representation noise (nil vs
	// empty slices) can't produce false mismatches.
	var got, want Report
	if err := json.Unmarshal(gotJSON, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantJSON, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report deviates from golden file.\ngot:\n%s\nwant:\n%s", gotJSON, wantJSON)
	}
}
