package sigfim

import (
	"context"
	"fmt"

	"sigfim/internal/core"
	"sigfim/internal/mining"
	"sigfim/internal/montecarlo"
	"sigfim/internal/randmodel"
	"sigfim/internal/trace"
)

// The multiple-testing corrections Config.Correction accepts. See the
// Correction field for the decision guide; "" selects CorrectionBY.
const (
	CorrectionBonferroni    = core.CorrectionBonferroni
	CorrectionHolm          = core.CorrectionHolm
	CorrectionBY            = core.CorrectionBY
	CorrectionWestfallYoung = core.CorrectionWestfallYoung
)

// ParseCorrection normalizes a correction name the way Config.Correction is
// interpreted: trimmed, lowercased, with "" meaning CorrectionBY. Unknown
// names return an error enumerating the accepted set.
func ParseCorrection(s string) (string, error) {
	c, err := core.ParseCorrection(s)
	if err != nil {
		return "", fmt.Errorf("sigfim: unknown correction %q (want %q, %q, %q, or %q)",
			s, CorrectionBonferroni, CorrectionHolm, CorrectionBY, CorrectionWestfallYoung)
	}
	return c, nil
}

// Config tunes the significance methodology. The zero value (or a nil
// pointer) selects the paper's experimental settings: alpha = beta = 0.05,
// epsilon = 0.01, Delta = 1000 Monte Carlo replicates.
type Config struct {
	// Alpha is the confidence budget: with probability at least 1-Alpha no
	// level of the threshold ladder is falsely rejected.
	Alpha float64
	// Beta is the FDR budget for the returned family.
	Beta float64
	// Epsilon is the Poisson-approximation tolerance of Algorithm 1.
	Epsilon float64
	// Delta is the Monte Carlo replicate count.
	Delta int
	// Seed fixes all random streams; runs are fully deterministic per seed.
	Seed uint64
	// WithBaseline additionally runs the per-itemset baseline (Procedure 1,
	// under Correction) and fills Report.Baseline.
	WithBaseline bool
	// Correction selects the multiple-testing correction Procedure 1 flags
	// discoveries with: one of CorrectionBonferroni, CorrectionHolm,
	// CorrectionBY (the default, the paper's Theorem 5 procedure), or
	// CorrectionWestfallYoung. Setting it implies WithBaseline.
	// Westfall-Young calibrates against the per-replicate minimum p-value
	// distribution collected from the same Monte Carlo replicates Algorithm 1
	// mines — under either null model — so it costs no extra replicates, only
	// one exact Binomial tail per mined itemset. It controls FWER (hence also
	// FDR) at Beta while adapting to the dependence among supports instead of
	// paying the worst-case C(n, k) penalty. Ignored by FindSMin.
	Correction string
	// MaxPatterns caps how many significant itemsets Report.Significant
	// materializes (0 = 100000). The count NumSignificant is always exact.
	MaxPatterns int
	// SwapNull replaces the independence null model with swap randomization
	// (preserving transaction lengths as well as item frequencies) — the
	// alternative null the paper's Section 1.1 anticipates. Every Monte
	// Carlo replicate re-runs the swap chain from the observed dataset in
	// pooled per-worker scratch space, so the replicate loop stays
	// allocation-free; the chain itself still costs O(proposals) per
	// replicate on top of mining. Supported by Significant only: FindSMin
	// rejects it (see FindSMin).
	SwapNull bool
	// SwapProposalsPerOccurrence sets the swap chain's burn-in per replicate
	// relative to the number of ones in the transaction matrix: each
	// replicate runs SwapProposalsPerOccurrence * |occurrences| swap
	// proposals before the randomized dataset is mined (default 8 when zero;
	// Gionis et al. report mixing after a small constant). Ignored unless
	// SwapNull is set; a negative value is an error either way.
	SwapProposalsPerOccurrence int
	// SwapProposals, when positive, fixes the absolute number of swap
	// proposals per replicate and overrides SwapProposalsPerOccurrence.
	// Ignored unless SwapNull is set; a negative value is an error either
	// way.
	SwapProposals int
	// Workers bounds the goroutines of every parallel stage (Monte Carlo
	// replicate mining, observed-dataset counting, pattern materialization):
	// 0 uses every CPU, 1 forces serial execution. For a fixed Seed the
	// report is identical for every worker count.
	Workers int
	// Algorithm selects the frequent-itemset miner used by every mining
	// stage (one of the Algo* constants; "" = auto, which picks Eclat with
	// an automatic physical layout). All algorithms mine identical itemsets,
	// so the choice affects performance only.
	Algorithm string
	// Progress, when non-nil, receives the Monte Carlo replicate progress
	// (replicates merged so far, total Delta) from Algorithm 1's merge
	// goroutine; an internal restart (s-tilde halving) resets the count to
	// zero. The callback must be fast and must not block. It cannot
	// influence the result, and it is ignored by JSON encoding, so configs
	// arriving as JSON (e.g. through sigfimd) never carry one.
	Progress func(completed, total int) `json:"-"`
	// RemotePool, when non-nil, shards the Monte Carlo replicates across
	// the sigfimd workers the pool supervises (see NewWorkerPool; its
	// WorkerPoolOptions carry the per-range timeout, hedging and range
	// sizing). nil runs everything in-process. Remote execution is
	// bit-identical to a local run: each replicate consumes the same RNG
	// substream regardless of which worker executes it, failed ranges are
	// retried on the other workers and finally mined locally through the
	// identical code path, and partials merge in replicate-index order.
	// Sharing one pool across analyses (as a sigfimd coordinator does
	// across jobs) preserves worker-health state — ejections, backoff
	// schedules, latency statistics — between runs; the caller closes it.
	// Like Progress, the field is a deployment concern, not part of the
	// analysis identity, and is ignored by JSON encoding so job requests
	// cannot inject it.
	RemotePool *WorkerPool `json:"-"`
}

func (c *Config) withDefaults() (core.Options, error) {
	o := core.Options{}
	if c != nil {
		o.Alpha = c.Alpha
		o.Beta = c.Beta
		o.Epsilon = c.Epsilon
		o.Delta = c.Delta
		o.Seed = c.Seed
		o.RunProcedure1 = c.WithBaseline || c.Correction != ""
		o.Workers = c.Workers
		o.Progress = c.Progress
		if err := checkSwapChainLengths(c.SwapProposalsPerOccurrence, c.SwapProposals); err != nil {
			return o, err
		}
		algo, err := mining.ParseAlgorithm(c.Algorithm)
		if err != nil {
			return o, fmt.Errorf("sigfim: unknown algorithm %q", c.Algorithm)
		}
		o.Algorithm = algo
		correction, err := ParseCorrection(c.Correction)
		if err != nil {
			return o, err
		}
		o.Correction = correction
	}
	return o, nil
}

// swapModel builds the swap null over ds. It rejects a per-replicate chain
// length that overflows an int, which the chain would otherwise run as a
// practically endless one.
func (ds *Dataset) swapModel(perOccurrence, proposals int) (*randmodel.SwapModel, error) {
	m := &randmodel.SwapModel{
		Base:                   ds.d,
		ProposalsPerOccurrence: perOccurrence,
		Proposals:              proposals,
	}
	if err := m.CheckChainLength(); err != nil {
		return nil, fmt.Errorf("sigfim: %w", err)
	}
	return m, nil
}

// CheckSwapChain reports the error a swap-null analysis of this dataset
// fails with for the given chain lengths (Config.SwapProposalsPerOccurrence
// and Config.SwapProposals): a negative length, or proposals per occurrence
// whose chain over the dataset's occurrences overflows an int. A service
// runs it when it admits a job, so such a job is refused up front instead
// of failing once it runs.
func (ds *Dataset) CheckSwapChain(perOccurrence, proposals int) error {
	if err := checkSwapChainLengths(perOccurrence, proposals); err != nil {
		return err
	}
	_, err := ds.swapModel(perOccurrence, proposals)
	return err
}

// checkSwapChainLengths rejects negative swap chain lengths, which would
// otherwise fall back to the chain's defaults without notice.
func checkSwapChainLengths(perOccurrence, proposals int) error {
	if perOccurrence < 0 || proposals < 0 {
		return fmt.Errorf("sigfim: swap chain lengths must be >= 0, got %d proposals per occurrence and %d proposals", perOccurrence, proposals)
	}
	return nil
}

// LadderStep reports one comparison of the support-threshold ladder.
type LadderStep struct {
	S        int     // tested support threshold
	Q        int64   // observed count of k-itemsets with support >= S
	Lambda   float64 // null expectation of that count
	PValue   float64 // Pr(Poisson(Lambda) >= Q)
	Rejected bool
}

// BaselineReport carries the Procedure 1 outcome under the configured
// multiple-testing correction (Benjamini-Yekutieli unless overridden).
type BaselineReport struct {
	// Correction names the multiple-testing correction the family was
	// flagged under (one of the Correction* constants).
	Correction string
	// NumSignificant is |R|, the size of the flagged family.
	NumSignificant int
	// NumTested is |F_k(s_min)|, the number of itemsets whose p-value was
	// computed.
	NumTested int
	// Significant lists the flagged itemsets ascending by p-value.
	Significant []Pattern
}

// Report is the outcome of the significance analysis for one itemset size.
type Report struct {
	// K is the analyzed itemset size.
	K int
	// SMin is the estimated Poisson threshold ŝ_min (Algorithm 1).
	SMin int
	// SStar is the selected support threshold s*; meaningful only when
	// Infinite is false.
	SStar int
	// Infinite reports that no threshold was significant (s* = ∞): the
	// dataset's high-support structure is consistent with the null model.
	Infinite bool
	// NumSignificant is Q_{k,s*}, the number of significant k-itemsets.
	NumSignificant int64
	// Lambda is lambda(s*), the expected count in a random twin.
	Lambda float64
	// Alpha and Beta echo the budgets the guarantee holds for.
	Alpha, Beta float64
	// Steps traces the threshold ladder.
	Steps []LadderStep
	// Significant materializes the flagged itemsets (up to the configured
	// cap), descending by support. Empty when Infinite.
	Significant []Pattern
	// Baseline is the Procedure 1 comparison (nil unless requested).
	Baseline *BaselineReport
	// PowerRatio is NumSignificant / |R| when the baseline ran and both
	// families are nonempty; the paper's Table 5 ratio r. It is 0 otherwise,
	// including when s* is finite but |R| = 0 (the report must stay
	// JSON-encodable, and JSON has no infinity).
	PowerRatio float64
}

// Significant runs the full methodology for k-itemsets: Algorithm 1 to find
// the Poisson regime, then Procedure 2 to select s* with the FDR guarantee.
func (ds *Dataset) Significant(k int, cfg *Config) (*Report, error) {
	return ds.SignificantCtx(context.Background(), k, cfg)
}

// SignificantCtx is Significant with cooperative cancellation: the context
// is checked at replicate boundaries of the Monte Carlo loop and between
// pipeline stages. A canceled run returns ctx.Err() (wrapping
// context.Canceled or context.DeadlineExceeded) and never a partial Report,
// so for a fixed seed every report that IS returned is bit-identical
// regardless of how many sibling runs were canceled around it.
func (ds *Dataset) SignificantCtx(ctx context.Context, k int, cfg *Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg != nil && cfg.SwapNull {
		m, err := ds.swapModel(cfg.SwapProposalsPerOccurrence, cfg.SwapProposals)
		if err != nil {
			return nil, err
		}
		opts.NullModel = m
	}
	if cfg != nil && cfg.RemotePool != nil {
		opts.Runner = ds.newRangeRunner(cfg)
		opts.RangeSize = cfg.RemotePool.rangeSize(opts.Delta)
	}
	_, warm := trace.Start(ctx, "dataset.warmup")
	v := ds.vertical()
	warm.End()
	a, err := core.AnalyzeCtx(ctx, "dataset", v, k, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		K:     k,
		SMin:  a.Proc2.SMin,
		Alpha: a.Proc2.Alpha,
		Beta:  a.Proc2.Beta,
	}
	for _, st := range a.Proc2.Steps {
		rep.Steps = append(rep.Steps, LadderStep{
			S: st.S, Q: st.Q, Lambda: st.Lambda, PValue: st.PValue, Rejected: st.Rejected,
		})
	}
	if a.Proc2.Found {
		rep.SStar = a.Proc2.SStar
		rep.NumSignificant = a.Proc2.Q
		rep.Lambda = a.Proc2.Lambda
		maxPat := core.DefaultMaxPatterns
		if cfg != nil && cfg.MaxPatterns > 0 {
			maxPat = cfg.MaxPatterns
		}
		if rep.NumSignificant <= int64(maxPat) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ps, err := ds.mineParsed(opts.Algorithm, MineOptions{K: k, MinSupport: rep.SStar, Workers: opts.Workers})
			if err != nil {
				return nil, err
			}
			rep.Significant = ps
		}
	} else {
		rep.Infinite = true
	}
	if a.Proc1 != nil {
		b := &BaselineReport{
			Correction:     a.Proc1.Correction,
			NumSignificant: a.Proc1.FamilySize,
			NumTested:      a.Proc1.NumMined,
		}
		for _, s := range a.Proc1.Family {
			b.Significant = append(b.Significant, Pattern{Items: s.Items, Support: s.Support})
		}
		rep.Baseline = b
		if a.Proc1.FamilySize > 0 {
			rep.PowerRatio = a.PowerRatio()
		}
	}
	return rep, nil
}

// FindSMin runs Algorithm 1 alone against the independence null model and
// returns the estimated Poisson threshold ŝ_min for size-k itemsets.
//
// FindSMin is independence-only by contract: it reproduces the paper's
// published Algorithm 1, whose soundness guarantee (Theorem 4) is stated for
// the independence null, and a standalone threshold quoted without its
// ladder is only interpretable against that reference model. Setting
// Config.SwapNull is therefore rejected with an error rather than silently
// answered with an independence-model threshold — a swap-null analysis gets
// its ŝ_min (and the ladder that makes it meaningful) from Significant.
func (ds *Dataset) FindSMin(k int, cfg *Config) (int, error) {
	return ds.FindSMinCtx(context.Background(), k, cfg)
}

// FindSMinCtx is FindSMin with cooperative cancellation; see SignificantCtx
// for the cancellation contract.
func (ds *Dataset) FindSMinCtx(ctx context.Context, k int, cfg *Config) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg != nil && cfg.SwapNull {
		return 0, fmt.Errorf("sigfim: FindSMin supports only the independence null (Config.SwapNull must be false); run Significant for a swap-null analysis")
	}
	opts, err := cfg.withDefaults()
	if err != nil {
		return 0, err
	}
	if opts.Delta == 0 {
		opts.Delta = core.DefaultDelta
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = core.DefaultEpsilon
	}
	_, warm := trace.Start(ctx, "dataset.warmup")
	freqs := ds.frequencies()
	warm.End()
	m := randmodel.IndependentModel{
		T:     ds.d.NumTransactions(),
		Freqs: freqs,
	}
	mcfg := montecarlo.Config{
		K: k, Delta: opts.Delta, Epsilon: opts.Epsilon, Seed: opts.Seed,
		Workers: opts.Workers, Algorithm: opts.Algorithm, Progress: opts.Progress,
	}
	if cfg != nil && cfg.RemotePool != nil {
		mcfg.Runner = ds.newRangeRunner(cfg)
		mcfg.RangeSize = cfg.RemotePool.rangeSize(opts.Delta)
	}
	res, err := montecarlo.FindPoissonThresholdCtx(ctx, m, mcfg)
	if err != nil {
		return 0, fmt.Errorf("sigfim: %w", err)
	}
	return res.SMin, nil
}
