// FDR comparison: Procedure 2 (the paper's support-threshold methodology)
// against Procedure 1 (per-itemset correction) on a Bms2-like profile — the
// Table 5 story. Both control FDR at the same beta; the support-threshold
// approach tests one global hypothesis per level instead of C(n, k)
// per-itemset hypotheses, and consequently flags more of the planted
// structure (power ratio r >= 1, often much larger).
//
// Procedure 1 runs twice per k: under the paper's analytic
// Benjamini-Yekutieli correction and under the resampling Westfall-Young
// correction, whose min-p null distribution comes from the same Monte Carlo
// replicates — the WY column shows how much of the analytic penalty is an
// artifact of ignoring the dependence between overlapping itemsets. The
// PowerDemo coda then prints all four correction modes side by side.
//
//	go run ./examples/fdrcomparison [-scale 16] [-delta 150]
package main

import (
	"flag"
	"fmt"
	"log"

	"sigfim"
)

var (
	scale = flag.Int("scale", 4, "profile scale divisor")
	delta = flag.Int("delta", 150, "Monte Carlo replicates")
)

func main() {
	flag.Parse()
	spec, err := sigfim.BenchmarkProfile("Bms2")
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scale(*scale)
	d := spec.Real(5)
	fmt.Printf("%s with planted correlations, alpha = beta = 0.05\n\n", spec.Name())
	fmt.Printf("%3s %10s %14s %14s %14s %10s\n", "k", "s*", "Proc2 family", "Proc1 |R| BY", "Proc1 |R| WY", "ratio r")

	for k := 2; k <= 4; k++ {
		report, err := d.Significant(k, &sigfim.Config{
			Delta:        *delta,
			Seed:         11,
			WithBaseline: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		wy, err := d.Significant(k, &sigfim.Config{
			Delta:      *delta,
			Seed:       11,
			Correction: sigfim.CorrectionWestfallYoung,
		})
		if err != nil {
			log.Fatal(err)
		}
		sStar := "inf"
		var q int64
		if !report.Infinite {
			sStar = fmt.Sprint(report.SStar)
			q = report.NumSignificant
		}
		ratio := "-"
		if report.Baseline != nil && !report.Infinite {
			if report.Baseline.NumSignificant == 0 {
				ratio = "inf"
			} else {
				ratio = fmt.Sprintf("%.2f", report.PowerRatio)
			}
		}
		fmt.Printf("%3d %10s %14d %14d %14d %10s\n",
			k, sStar, q, report.Baseline.NumSignificant, wy.Baseline.NumSignificant, ratio)
	}

	fmt.Println(`
Reading the table: both procedures bound the false discovery rate by 5%,
but Procedure 1 pays a Benjamini-Yekutieli penalty over all C(n,k)
hypotheses, so its rejection threshold collapses as k grows; Procedure 2
tests ~log2(s_max - s_min) Poisson hypotheses regardless of n, keeping its
power. Ratios above 1 are exactly the paper's Table 5 phenomenon.`)

	// The phenomenon in its purest form: a dense plateau of equally popular
	// items with modestly boosted pairs. Each boosted pair is individually
	// unremarkable (a few sigma, p ~ 1e-2..1e-5 — far above the BY step-up
	// line), but forty of them above the Poisson threshold cannot happen
	// under the null.
	fmt.Println("\nPowerDemo profile (individually-marginal, collectively-impossible signal):")
	demo, err := sigfim.BenchmarkProfile("PowerDemo")
	if err != nil {
		log.Fatal(err)
	}
	d2 := demo.Real(3)
	rep, err := d2.Significant(2, &sigfim.Config{Delta: 150, Seed: 11, WithBaseline: true})
	if err != nil {
		log.Fatal(err)
	}
	if rep.Infinite {
		fmt.Println("unexpected: no threshold found")
		return
	}
	fmt.Printf("Procedure 2: s* = %d -> %d significant pairs (null expects %.3f)\n",
		rep.SStar, rep.NumSignificant, rep.Lambda)
	fmt.Printf("Procedure 1: |R| = %d  ->  power ratio r = %.1f\n",
		rep.Baseline.NumSignificant, rep.PowerRatio)

	// All four Procedure 1 corrections on the same dataset and seed. The
	// analytic modes (BY, Bonferroni, Holm) each charge for all C(n, 2)
	// hypotheses; Westfall-Young calibrates against the resampled joint null,
	// so it is the one per-itemset mode that can see the marginal signal.
	fmt.Println("\nProcedure 1 family size by correction mode:")
	for _, corr := range []string{
		sigfim.CorrectionBY,
		sigfim.CorrectionBonferroni,
		sigfim.CorrectionHolm,
		sigfim.CorrectionWestfallYoung,
	} {
		r, err := d2.Significant(2, &sigfim.Config{Delta: 150, Seed: 11, Correction: corr})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s |R| = %d\n", corr, r.Baseline.NumSignificant)
	}
}
