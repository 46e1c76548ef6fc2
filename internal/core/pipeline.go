package core

import (
	"context"
	"fmt"

	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/montecarlo"
	"sigfim/internal/randmodel"
)

// Options bundles the methodology's tunables with the paper's defaults.
type Options struct {
	// Alpha is the confidence budget of Procedure 2 (default 0.05).
	Alpha float64
	// Beta is the FDR budget of both procedures (default 0.05).
	Beta float64
	// Epsilon is the Poisson-approximation tolerance of Algorithm 1
	// (default 0.01).
	Epsilon float64
	// Delta is the number of Monte Carlo replicates (default 1000).
	Delta int
	// Seed fixes all random streams.
	Seed uint64
	// RunProcedure1 additionally runs the Procedure 1 baseline for
	// comparison.
	RunProcedure1 bool
	// Correction selects Procedure 1's multiple-testing correction (one of
	// the Correction* constants); empty means CorrectionBY, the paper's
	// Theorem 5 default. CorrectionWestfallYoung additionally turns on
	// Algorithm 1's min-p collection (montecarlo.Config.CollectMinPs) so the
	// resampled null distribution rides the same replicates. Ignored unless
	// RunProcedure1.
	Correction string
	// NullModel overrides the null model used by Algorithm 1 and the lambda
	// estimates; nil selects the paper's independence model built from the
	// dataset's measured profile. Swap randomization (*randmodel.SwapModel)
	// is the natural alternative; both shipped models implement the pooled
	// InPlaceGenerator path, so Algorithm 1's replicate loop stays
	// allocation-free under either null.
	NullModel randmodel.Model
	// Workers bounds the goroutines of every parallel stage: Algorithm 1's
	// replicate mining and the observed-dataset counting passes. 0 selects
	// runtime.NumCPU(), 1 forces serial execution. Results are identical for
	// every worker count.
	Workers int
	// Algorithm selects the frequent-itemset miner driving Algorithm 1's
	// replicate mining, Procedure 2's counting pass and Procedure 1's
	// mining passes (mining.Auto picks Eclat with an automatic layout;
	// mining.FPGrowth and mining.Apriori force those engines). All algorithms mine identical
	// itemsets, so the choice affects performance only.
	Algorithm mining.Algorithm
	// Progress, when non-nil, receives Algorithm 1's replicate-merge progress
	// (done, total); see montecarlo.Config.Progress. It cannot influence the
	// result.
	Progress func(done, total int)
	// Runner, when non-nil, executes Algorithm 1's replicate ranges remotely
	// (see montecarlo.Config.Runner); nil keeps the in-process pool. The
	// merged result is bit-identical either way.
	Runner montecarlo.RangeRunner
	// RangeSize tunes Runner dispatches; see montecarlo.Config. It cannot
	// influence the result.
	RangeSize int
}

// The pipeline's defaults: withDefaults fills them into zero Options
// fields, and sigfim.ResolveConfig, which the library and the service's
// cache key share, fills them into a public Config.
const (
	DefaultAlpha   = 0.05 // Procedure 2's confidence budget
	DefaultBeta    = 0.05 // FDR budget of both procedures
	DefaultEpsilon = 0.01 // Algorithm 1's Poisson-approximation tolerance
	DefaultDelta   = 1000 // Algorithm 1's Monte Carlo replicates
	// DefaultMaxPatterns caps how many significant itemsets a report
	// materializes.
	DefaultMaxPatterns = 100000
)

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Beta == 0 {
		o.Beta = DefaultBeta
	}
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Delta == 0 {
		o.Delta = DefaultDelta
	}
	if o.Correction == "" {
		o.Correction = CorrectionBY
	}
	return o
}

// Analysis is the full output of the methodology on one (dataset, k) pair.
type Analysis struct {
	// Profile is the measured dataset profile the null model was built from.
	Profile dataset.Profile
	// K is the itemset size.
	K int
	// MC is the Algorithm 1 output (ŝ_min, empirical bounds, lambda).
	MC *montecarlo.Result
	// Proc2 is the support-threshold methodology result.
	Proc2 *Procedure2Result
	// Proc1 is the Procedure 1 baseline under Options.Correction (nil unless
	// Options.RunProcedure1).
	Proc1 *Procedure1Result
}

// PowerRatio returns the Table 5 ratio r = Q_{k,s*}/|R|; zero when either
// procedure is missing.
func (a *Analysis) PowerRatio() float64 {
	if a.Proc1 == nil || a.Proc2 == nil {
		return 0
	}
	return Ratio(a.Proc2, a.Proc1)
}

// Analyze runs the complete methodology against a dataset: profile
// extraction, Algorithm 1 on the matching null model, Procedure 2 with the
// Monte Carlo lambda estimates, and optionally Procedure 1.
func Analyze(name string, v *dataset.Vertical, k int, opts Options) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), name, v, k, opts)
}

// AnalyzeCtx is Analyze with cooperative cancellation: the context is
// threaded into Algorithm 1's replicate loop and checked between the
// pipeline's stages. A canceled run returns ctx.Err() and never a partial
// Analysis, so cancellation cannot perturb results that do complete.
func AnalyzeCtx(ctx context.Context, name string, v *dataset.Vertical, k int, opts Options) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	correction, err := ParseCorrection(opts.Correction)
	if err != nil {
		return nil, err
	}
	profile := dataset.ExtractVertical(name, v)
	var model randmodel.Model = randmodel.FromProfile(profile)
	if opts.NullModel != nil {
		model = opts.NullModel
	}

	mc, err := montecarlo.FindPoissonThresholdCtx(ctx, model, montecarlo.Config{
		K:            k,
		Delta:        opts.Delta,
		Epsilon:      opts.Epsilon,
		Seed:         opts.Seed,
		Workers:      opts.Workers,
		Algorithm:    opts.Algorithm,
		Progress:     opts.Progress,
		Runner:       opts.Runner,
		RangeSize:    opts.RangeSize,
		CollectMinPs: opts.RunProcedure1 && correction == CorrectionWestfallYoung,
	})
	if err != nil {
		return nil, fmt.Errorf("core: Algorithm 1: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sMin := mc.SMin
	if sMin < mc.Floor {
		// Lambda estimates only exist down to the mining floor.
		sMin = mc.Floor
	}

	lambda := func(s int) float64 {
		if s < mc.Floor {
			s = mc.Floor
		}
		return mc.Lambda(s)
	}
	p2, err := Procedure2Ex(v, k, sMin, lambda, opts.Alpha, opts.Beta, SplitEqual, opts.Workers, opts.Algorithm)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Profile: profile, K: k, MC: mc, Proc2: p2}
	if opts.RunProcedure1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p1, err := procedure1(v, k, sMin, opts.Beta, correction, mc.MinPs, opts.Algorithm)
		if err != nil {
			return nil, err
		}
		a.Proc1 = p1
	}
	return a, nil
}
