package core

import (
	"strings"
	"testing"

	"sigfim/internal/mining"
	"sigfim/internal/montecarlo"
)

// Procedure1Ex correction-dispatch tests: name normalization, the
// Bonferroni <= Holm <= BY family-size ordering guaranteed by theory, the
// Westfall-Young path against the resampled null, and its need for the
// min-p values Algorithm 1 collects.

func TestParseCorrection(t *testing.T) {
	cases := map[string]string{
		"by":              CorrectionBY,
		" BY ":            CorrectionBY,
		"bonferroni":      CorrectionBonferroni,
		"Holm":            CorrectionHolm,
		"westfall-young":  CorrectionWestfallYoung,
		" Westfall-Young": CorrectionWestfallYoung,
	}
	for in, want := range cases {
		got, err := ParseCorrection(in)
		if err != nil || got != want {
			t.Errorf("ParseCorrection(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", " ", "bh", "westfall", "fdr", "none"} {
		_, err := ParseCorrection(bad)
		if err == nil {
			t.Errorf("ParseCorrection(%q) accepted", bad)
			continue
		}
		for _, name := range []string{CorrectionBonferroni, CorrectionHolm, CorrectionBY, CorrectionWestfallYoung} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseCorrection(%q) error %q does not enumerate %q", bad, err, name)
			}
		}
	}
}

func TestProcedure1ExFamilyOrdering(t *testing.T) {
	// Plant a strong pair so every correction flags something, then check
	// the theoretical containments: the Bonferroni family is contained in
	// Holm's (step-down dominates single-step), and with m = C(n, k) both
	// FWER families are no larger than BY's FDR family here.
	freqs := uniformFreqs(30, 0.1)
	v := genNull(400, freqs, 5)
	tids := make([]uint32, 60)
	for i := range tids {
		tids[i] = uint32(100 + i)
	}
	v = plant(v, []uint32{2, 3}, tids)

	size := map[string]int{}
	for _, c := range []string{CorrectionBonferroni, CorrectionHolm, CorrectionBY} {
		res, err := Procedure1Ex(v, 2, 10, 0.05, c, nil)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if res.Correction != c {
			t.Errorf("%s: result reports correction %q", c, res.Correction)
		}
		found := false
		for _, s := range res.Family {
			found = found || s.Items.Equal(mining.Itemset{2, 3})
		}
		if !found {
			t.Errorf("%s: planted pair not flagged", c)
		}
		size[c] = res.FamilySize
	}
	if size[CorrectionBonferroni] > size[CorrectionHolm] {
		t.Errorf("Bonferroni family (%d) larger than Holm's (%d)",
			size[CorrectionBonferroni], size[CorrectionHolm])
	}

	// A blank correction is refused, not quietly run as BY.
	if _, err := Procedure1Ex(v, 2, 10, 0.05, "", nil); err == nil {
		t.Error(`Procedure1Ex("") ran a correction`)
	}
}

func TestProcedure1ExWestfallYoung(t *testing.T) {
	freqs := uniformFreqs(30, 0.1)
	v := genNull(400, freqs, 5)
	tids := make([]uint32, 60)
	for i := range tids {
		tids[i] = uint32(100 + i)
	}
	v = plant(v, []uint32{2, 3}, tids)

	// Without the resampled null distribution the request must fail loudly.
	if _, err := Procedure1Ex(v, 2, 10, 0.05, CorrectionWestfallYoung, nil); err == nil {
		t.Fatal("westfall-young without minPs accepted")
	}

	// A null distribution with every replicate minimum at 0.5 rejects only
	// p-values below it (each gets adjusted p = 1/(Delta+1)); the planted
	// pair's p-value is ~1e-30, so it must be flagged.
	minPs := make([]float64, 99)
	for i := range minPs {
		minPs[i] = 0.5
	}
	res, err := Procedure1Ex(v, 2, 10, 0.05, CorrectionWestfallYoung, minPs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correction != CorrectionWestfallYoung {
		t.Errorf("result reports correction %q", res.Correction)
	}
	found := false
	for _, s := range res.Family {
		found = found || s.Items.Equal(mining.Itemset{2, 3})
	}
	if !found {
		t.Fatal("planted pair not flagged under westfall-young")
	}

	// An all-zeros null distribution dominates every p-value: adjusted p = 1
	// everywhere, nothing rejected.
	zero := make([]float64, 99)
	res, err = Procedure1Ex(v, 2, 10, 0.05, CorrectionWestfallYoung, zero)
	if err != nil {
		t.Fatal(err)
	}
	if res.FamilySize != 0 || len(res.Family) != 0 {
		t.Errorf("degenerate null distribution still flagged %d itemsets", res.FamilySize)
	}
}

func TestAnalyzeWestfallYoungCollectsMinPs(t *testing.T) {
	freqs := uniformFreqs(20, 0.12)
	v := genNull(300, freqs, 3)
	cfg := montecarlo.Config{Delta: 60, Seed: 11, Workers: 1, CollectMinPs: true}
	a := analyze(t, v, 2, cfg, nil, CorrectionWestfallYoung)
	if len(a.mc.MinPs) != cfg.Delta {
		t.Fatalf("len(MinPs) = %d, want Delta = %d", len(a.mc.MinPs), cfg.Delta)
	}
	if a.proc1.Correction != CorrectionWestfallYoung {
		t.Fatalf("Procedure 1 correction = %q, want westfall-young", a.proc1.Correction)
	}

	// Without the collection Westfall-Young has no null distribution, and
	// an unknown correction has no rule: both fail before any mining.
	sMin, _ := a.mc.Ladder()
	if _, err := Procedure1Ex(v, 2, sMin, DefaultBeta, CorrectionWestfallYoung, nil); err == nil {
		t.Error("westfall-young without min-p values accepted")
	}
	if _, err := Procedure1Ex(v, 2, sMin, DefaultBeta, "bh", a.mc.MinPs); err == nil {
		t.Error("unknown correction accepted")
	}
}
