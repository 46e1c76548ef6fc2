package core

import (
	"strings"
	"testing"

	"sigfim/internal/mining"
)

// Procedure1Ex correction-dispatch tests: name normalization, the
// Bonferroni <= Holm <= BY family-size ordering guaranteed by theory, the
// Westfall-Young path against the resampled null, and the analysis-level
// wiring that collects min-p shards only when the correction needs them.

func TestParseCorrection(t *testing.T) {
	cases := map[string]string{
		"":                CorrectionBY,
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
	for _, bad := range []string{"bh", "westfall", "fdr", "none"} {
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

	// The empty correction must normalize to BY, the paper's default.
	def, err := Procedure1Ex(v, 2, 10, 0.05, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if def.FamilySize != size[CorrectionBY] || def.Correction != CorrectionBY {
		t.Errorf("Procedure1Ex(\"\") = %d under %q, Procedure1Ex(by) = %d",
			def.FamilySize, def.Correction, size[CorrectionBY])
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
	opts := Options{Delta: 60, Seed: 11, Workers: 1, RunProcedure1: true, Correction: CorrectionWestfallYoung}
	a, err := Analyze("wy", v, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.MC.MinPs) != opts.Delta {
		t.Fatalf("len(MC.MinPs) = %d, want Delta = %d", len(a.MC.MinPs), opts.Delta)
	}
	if a.Proc1 == nil || a.Proc1.Correction != CorrectionWestfallYoung {
		t.Fatalf("Proc1 = %+v, want westfall-young baseline", a.Proc1)
	}

	// The default analysis must not pay for collection it does not use.
	opts.Correction = ""
	a, err = Analyze("by", v, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.MC.MinPs) != 0 {
		t.Errorf("BY analysis collected %d min-p values", len(a.MC.MinPs))
	}
	if a.Proc1 == nil || a.Proc1.Correction != CorrectionBY {
		t.Fatalf("Proc1 correction = %q, want by", a.Proc1.Correction)
	}

	// Unknown corrections fail before any mining.
	opts.Correction = "bh"
	if _, err := Analyze("bad", v, 2, opts); err == nil {
		t.Error("unknown correction accepted")
	}
}
