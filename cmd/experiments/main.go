// Command experiments regenerates the paper's evaluation tables (Tables 1-5)
// on the synthetic benchmark profiles.
//
// Usage:
//
//	experiments -table N [-scale F] [-delta D] [-k list] [-datasets list]
//	            [-trials T] [-seed S] [-workers W] [-verbose]
//	            [-null independence|swap] [-swap-ppo 8] [-swap-proposals N]
//	            [-correction by|bonferroni|holm|westfall-young]
//
// Table 1 prints the benchmark profile parameters; Table 2 runs Algorithm 1
// (ŝ_min) on the random counterparts; Table 3 runs Procedure 2 on the "real"
// variants; Table 4 applies Procedure 2 to pure-random instances and counts
// finite outcomes; Table 5 compares Procedure 1 and Procedure 2 power.
// -table 0 runs everything.
//
// -scale divides every profile's transaction count (default 16; use 1 for
// the paper's full-size runs — hours of CPU). Scaled thresholds shrink
// roughly in proportion; the qualitative pattern is preserved.
//
// -correction picks the multiple-testing correction Procedure 1 uses in
// Table 5 (default: the paper's Benjamini–Yekutieli step-up). The
// Westfall–Young mode resamples per-replicate min-p statistics on the same
// Monte Carlo replicates, so Table 5 then shows the power the resampling
// correction buys over the analytic ones.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"sigfim/internal/core"
	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/montecarlo"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
	"sigfim/internal/synth"
)

// app carries one invocation's settings and output sink; run() builds it
// from the flags, so run is reentrant (no mutable package state).
type app struct {
	seed          uint64
	delta         int
	trials        int
	workers       int
	verbose       bool
	correction    string
	swapNull      bool
	swapPPO       int
	swapProposals int
	out           io.Writer
}

// nullFor builds the selected null model for one generated instance: the
// paper's independence model from the measured profile, or margin-preserving
// swap randomization seeded from the instance itself.
func (a *app) nullFor(name string, v *dataset.Vertical) randmodel.Model {
	if m := a.coreNull(v); m != nil {
		return m
	}
	return randmodel.FromProfile(dataset.ExtractVertical(name, v))
}

// coreNull is the core.Options.NullModel value for one instance: nil keeps
// the pipeline's default (independence from the measured profile).
func (a *app) coreNull(v *dataset.Vertical) randmodel.Model {
	if !a.swapNull {
		return nil
	}
	return &randmodel.SwapModel{
		Base:                   v.Horizontal(),
		ProposalsPerOccurrence: a.swapPPO,
		Proposals:              a.swapProposals,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without os.Exit: usage errors (bad flags, bad -k/-datasets
// lists, unknown datasets) report on stderr with exit code 2, and the
// selected tables print to stdout. Tests drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "table to regenerate (1-5; 0 = all)")
	scale := fs.Int("scale", 0, "divide every profile's t by this factor (0 = per-profile auto; 1 = full size)")
	delta := fs.Int("delta", 200, "Monte Carlo replicates for Algorithm 1")
	kList := fs.String("k", "2,3,4", "comma-separated itemset sizes")
	datasets := fs.String("datasets", "", "comma-separated profile names (default: all six)")
	trials := fs.Int("trials", 20, "random instances per profile for Table 4")
	seed := fs.Uint64("seed", 20090629, "base random seed")
	verbose := fs.Bool("verbose", false, "print per-step diagnostics")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all CPUs, 1 = serial)")
	null := fs.String("null", "independence", "null model for tables 2-5: independence|swap")
	correction := fs.String("correction", "", "Procedure 1 correction for table 5: by|bonferroni|holm|westfall-young (\"\" = by)")
	swapPPO := fs.Int("swap-ppo", 0, "swap null: proposals per matrix occurrence per replicate (0 = 8)")
	swapProposals := fs.Int("swap-proposals", 0, "swap null: absolute proposals per replicate (overrides -swap-ppo)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	var swapNull bool
	switch *null {
	case "", "independence":
	case "swap":
		swapNull = true
	default:
		fmt.Fprintf(stderr, "experiments: unknown null model %q (want independence or swap)\n", *null)
		return 2
	}
	ks, err := parseKs(*kList)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	corr, err := core.ParseCorrection(*correction)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	if *table < 0 || *table > 5 {
		fmt.Fprintf(stderr, "experiments: -table must be 0-5, got %d\n", *table)
		return 2
	}
	if *scale < 0 {
		fmt.Fprintf(stderr, "experiments: -scale must be >= 0, got %d\n", *scale)
		return 2
	}
	specs, err := selectSpecs(*datasets, *scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	a := &app{
		seed: *seed, delta: *delta, trials: *trials, workers: *workers,
		verbose: *verbose, correction: corr, out: stdout,
		swapNull: swapNull, swapPPO: *swapPPO, swapProposals: *swapProposals,
	}
	want := func(n int) bool { return *table == 0 || *table == n }
	if want(1) {
		a.table1(specs)
	}
	if want(2) {
		a.table2(specs, ks)
	}
	if want(3) {
		a.table3(specs, ks)
	}
	if want(4) {
		a.table4(specs, ks)
	}
	if want(5) {
		a.table5(specs, ks)
	}
	return 0
}

func parseKs(s string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("experiments: bad k %q", part)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

func selectSpecs(names string, scale int) ([]synth.Spec, error) {
	var specs []synth.Spec
	if names == "" {
		specs = synth.Profiles()
	} else {
		for _, n := range strings.Split(names, ",") {
			s, ok := synth.ByName(strings.TrimSpace(n))
			if !ok {
				return nil, fmt.Errorf("experiments: unknown dataset %q (have %v)", n, synth.Names())
			}
			specs = append(specs, s)
		}
	}
	for i := range specs {
		f := scale
		if f == 0 {
			f = synth.RecommendedScale(specs[i].Name)
		}
		specs[i] = specs[i].Scale(f)
	}
	return specs, nil
}

// table1 reports the measured parameters of one generated "real" instance of
// each profile, next to the published targets.
func (a *app) table1(specs []synth.Spec) {
	fmt.Fprintln(a.out, "== Table 1: benchmark dataset parameters (measured on one synthetic instance) ==")
	fmt.Fprintf(a.out, "%-12s %8s %-24s %7s %9s\n", "Dataset", "n", "[fmin; fmax]", "m", "t")
	for _, spec := range specs {
		v := spec.GenerateReal(a.seed)
		p := dataset.ExtractVertical(spec.Name, v)
		fmin, fmax := p.FreqRange()
		fmt.Fprintf(a.out, "%-12s %8d [%.3g ; %.3g] %10.1f %9d\n",
			spec.Name, p.NumItems(), fmin, fmax, p.AvgTransactionLen(), p.T)
	}
	fmt.Fprintln(a.out)
}

// table2 runs Algorithm 1 on each random counterpart: a random dataset with
// the same transaction count and item frequencies as the (generated) real
// benchmark instance, exactly as the paper's RandX datasets are defined.
func (a *app) table2(specs []synth.Spec, ks []int) {
	fmt.Fprintln(a.out, "== Table 2: ŝ_min from Algorithm 1 (eps=0.01) on random counterparts ==")
	a.header("Dataset", ks, func(k int) string { return fmt.Sprintf("k=%d", k) })
	for _, spec := range specs {
		cells := make([]string, len(ks))
		real := spec.GenerateReal(a.seed)
		null := a.nullFor(spec.Name, real)
		for i, k := range ks {
			res, err := montecarlo.FindPoissonThreshold(null, montecarlo.Config{
				K: k, Delta: a.delta, Epsilon: 0.01, Seed: a.seed, Workers: a.workers,
			})
			if err != nil {
				cells[i] = "err:" + err.Error()
				continue
			}
			cells[i] = strconv.Itoa(res.SMin)
		}
		a.row("Rand"+spec.Name, cells)
	}
	fmt.Fprintln(a.out)
}

// table3 runs Procedure 2 on the planted "real" variants.
func (a *app) table3(specs []synth.Spec, ks []int) {
	fmt.Fprintln(a.out, "== Table 3: Procedure 2 (alpha=beta=0.05) on the benchmark datasets ==")
	fmt.Fprintf(a.out, "%-12s %4s %10s %12s %12s\n", "Dataset", "k", "s*", "Q_{k,s*}", "lambda(s*)")
	for _, spec := range specs {
		v := spec.GenerateReal(a.seed)
		nm := a.coreNull(v) // one model per spec: its snapshot/pool warm across ks
		for _, k := range ks {
			an, err := core.Analyze(spec.Name, v, k, core.Options{
				Delta: a.delta, Seed: a.seed, Workers: a.workers,
				NullModel: nm,
			})
			if err != nil {
				fmt.Fprintf(a.out, "%-12s %4d  error: %v\n", spec.Name, k, err)
				continue
			}
			a.printProc2Row(spec.Name, k, an.Proc2)
			if a.verbose {
				for _, st := range an.Proc2.Steps {
					fmt.Fprintf(a.out, "    step i=%d s=%d Q=%d lam=%.4g p=%.4g rej=%v\n",
						st.I, st.S, st.Q, st.Lambda, st.PValue, st.Rejected)
				}
			}
		}
	}
	fmt.Fprintln(a.out)
}

func (a *app) printProc2Row(name string, k int, p2 *core.Procedure2Result) {
	if p2.Found {
		fmt.Fprintf(a.out, "%-12s %4d %10d %12d %12.3g\n", name, k, p2.SStar, p2.Q, p2.Lambda)
	} else {
		fmt.Fprintf(a.out, "%-12s %4d %10s %12d %12d\n", name, k, "inf", 0, 0)
	}
}

// table4 applies Procedure 2 to pure-random instances. Algorithm 1 runs once
// per (profile, k) — ŝ_min and the lambda estimates are properties of the
// null model, not of any individual instance — and each trial then runs only
// the Procedure 2 ladder against its own instance.
func (a *app) table4(specs []synth.Spec, ks []int) {
	fmt.Fprintf(a.out, "== Table 4: finite s* count over %d random instances per profile ==\n", a.trials)
	a.header("Dataset", ks, func(k int) string { return fmt.Sprintf("k=%d", k) })
	for _, spec := range specs {
		cells := make([]string, len(ks))
		real := spec.GenerateReal(a.seed)
		null := a.nullFor(spec.Name, real)
		for i, k := range ks {
			mc, err := montecarlo.FindPoissonThreshold(null, montecarlo.Config{
				K: k, Delta: a.delta, Epsilon: 0.01, Seed: a.seed, Workers: a.workers,
			})
			if err != nil {
				cells[i] = "err:" + err.Error()
				continue
			}
			sMin := mc.SMin
			if sMin < mc.Floor {
				sMin = mc.Floor
			}
			lambda := func(s int) float64 {
				if s < mc.Floor {
					s = mc.Floor
				}
				return mc.Lambda(s)
			}
			finite := 0
			for trial := 0; trial < a.trials; trial++ {
				v := null.Generate(stats.NewRNG(a.seed + uint64(1000+trial)))
				p2, err := core.Procedure2Ex(v, k, sMin, lambda, 0.05, 0.05, core.SplitEqual, a.workers, mining.Auto)
				if err != nil {
					cells[i] = "err:" + err.Error()
					break
				}
				if p2.Found {
					finite++
				}
			}
			if cells[i] == "" {
				cells[i] = strconv.Itoa(finite)
			}
		}
		a.row("Random"+spec.Name, cells)
	}
	fmt.Fprintln(a.out)
}

// table5 compares Procedure 1's family size |R| against Procedure 2's,
// under the correction selected by -correction.
func (a *app) table5(specs []synth.Spec, ks []int) {
	fmt.Fprintf(a.out, "== Table 5: Procedure 1 |R| and power ratio r = Q_{k,s*}/|R| (beta=0.05, correction=%s) ==\n", a.correction)
	fmt.Fprintf(a.out, "%-12s %4s %10s %10s\n", "Dataset", "k", "|R|", "r")
	for _, spec := range specs {
		v := spec.GenerateReal(a.seed)
		nm := a.coreNull(v) // one model per spec: its snapshot/pool warm across ks
		for _, k := range ks {
			an, err := core.Analyze(spec.Name, v, k, core.Options{
				Delta: a.delta, Seed: a.seed, Workers: a.workers, RunProcedure1: true,
				Correction: a.correction, NullModel: nm,
			})
			if err != nil {
				fmt.Fprintf(a.out, "%-12s %4d  error: %v\n", spec.Name, k, err)
				continue
			}
			r := an.PowerRatio()
			rs := fmt.Sprintf("%.3f", r)
			if math.IsInf(r, 1) {
				rs = "inf"
			}
			fmt.Fprintf(a.out, "%-12s %4d %10d %10s\n", spec.Name, k, an.Proc1.FamilySize, rs)
		}
	}
	fmt.Fprintln(a.out)
}

func (a *app) header(label string, ks []int, f func(int) string) {
	fmt.Fprintf(a.out, "%-16s", label)
	for _, k := range ks {
		fmt.Fprintf(a.out, "%12s", f(k))
	}
	fmt.Fprintln(a.out)
}

func (a *app) row(label string, cells []string) {
	fmt.Fprintf(a.out, "%-16s", label)
	for _, c := range cells {
		fmt.Fprintf(a.out, "%12s", c)
	}
	fmt.Fprintln(a.out)
}
