package sigfim

import (
	"context"
	"fmt"

	"sigfim/internal/core"
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
// epsilon = 0.01, Delta = 1000 Monte Carlo replicates. ResolveConfig fills
// the defaults and checks every field; Significant and FindSMin run it
// before any work.
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
	// Algorithm is accepted for compatibility and otherwise ignored: it
	// must be "" or one of the Algo* constants, and every analysis mines
	// with AlgoAuto, since every miner mines identical itemsets.
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

// ResolveConfig returns the configuration a k-itemset analysis of ds runs
// with, or the first error in cfg (nil selects every default). Significant
// and FindSMin (findSMin) resolve their Config with it before any work, and
// sigfimd resolves every significant and smin job with it at submission, so
// the library errors exactly when the service answers 400, and the service
// keys its result cache on what the analysis actually reads. In the
// returned Config:
//   - every default is filled: Alpha, Beta, Epsilon, Delta, MaxPatterns
//     and, under the swap null, SwapProposalsPerOccurrence;
//   - Algorithm is AlgoAuto for every accepted name;
//   - WithBaseline reports whether the baseline runs (WithBaseline or a
//     Correction), and Correction is normalized when it does and empty
//     otherwise;
//   - what the analysis ignores is zero: the swap knobs the chosen null
//     does not read and, for FindSMin, Procedure 2's and the baseline's
//     fields.
//
// Budgets must lie in [0, 1) and counts must be >= 0, with 0 selecting the
// default; NaN is an error. Only a swap-null configuration reads the
// dataset, to check that the chain length fits an int. A resolved Config
// resolves to itself.
func (ds *Dataset) ResolveConfig(k int, cfg *Config, findSMin bool) (Config, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if k < 1 {
		return Config{}, fmt.Errorf("sigfim: k must be >= 1, got %d", k)
	}
	budgets := []struct {
		name string
		v    *float64
		def  float64
	}{
		{"Alpha", &c.Alpha, core.DefaultAlpha},
		{"Beta", &c.Beta, core.DefaultBeta},
		{"Epsilon", &c.Epsilon, core.DefaultEpsilon},
	}
	for _, b := range budgets {
		if !(*b.v >= 0 && *b.v < 1) { // false for NaN too
			return Config{}, fmt.Errorf("sigfim: %s must be in [0, 1) (0 = %v), got %v", b.name, b.def, *b.v)
		}
		if *b.v == 0 {
			*b.v = b.def
		}
	}
	counts := []struct {
		name string
		v    *int
		def  int
	}{
		{"Delta", &c.Delta, core.DefaultDelta},
		{"MaxPatterns", &c.MaxPatterns, core.DefaultMaxPatterns},
		{"Workers", &c.Workers, 0}, // 0 = every CPU
	}
	for _, n := range counts {
		if *n.v < 0 {
			return Config{}, fmt.Errorf("sigfim: %s must be >= 0, got %d", n.name, *n.v)
		}
		if *n.v == 0 {
			*n.v = n.def
		}
	}
	if _, err := parseAlgorithm(c.Algorithm); err != nil {
		return Config{}, err
	}
	c.Algorithm = AlgoAuto
	correction, err := ParseCorrection(c.Correction)
	if err != nil {
		return Config{}, err
	}
	c.WithBaseline = c.WithBaseline || c.Correction != ""
	if findSMin {
		if c.SwapNull {
			return Config{}, fmt.Errorf("sigfim: FindSMin supports only the independence null (Config.SwapNull must be false); run Significant for a swap-null analysis")
		}
		c.Alpha, c.Beta, c.MaxPatterns, c.WithBaseline = 0, 0, 0, false
	}
	c.Correction = ""
	if c.WithBaseline {
		c.Correction = correction
	}
	c.SwapProposalsPerOccurrence, c.SwapProposals, err = ds.swapLengths(c.SwapNull, c.SwapProposalsPerOccurrence, c.SwapProposals)
	if err != nil {
		return Config{}, err
	}
	return c, nil
}

// swapLengths checks the swap chain lengths (Config.SwapProposalsPerOccurrence
// and Config.SwapProposals) and returns the ones the chosen null reads:
// none under the independence null, the absolute length when it is set,
// and otherwise the per-occurrence length with its default filled in.
// Negative lengths are an error under either null, and so is a
// per-occurrence length whose chain over the dataset's occurrences
// overflows an int, which would otherwise run practically forever.
func (ds *Dataset) swapLengths(swapNull bool, perOccurrence, proposals int) (int, int, error) {
	if perOccurrence < 0 || proposals < 0 {
		return 0, 0, fmt.Errorf("sigfim: swap chain lengths must be >= 0, got %d proposals per occurrence and %d proposals", perOccurrence, proposals)
	}
	switch {
	case !swapNull:
		return 0, 0, nil
	case proposals > 0:
		return 0, proposals, nil
	case perOccurrence == 0:
		perOccurrence = randmodel.DefaultProposalsPerOccurrence
	}
	if err := ds.swapModel(perOccurrence, 0).CheckChainLength(); err != nil {
		return 0, 0, fmt.Errorf("sigfim: %w", err)
	}
	return perOccurrence, 0, nil
}

// swapModel builds the swap null over ds for chain lengths swapLengths
// returned.
func (ds *Dataset) swapModel(perOccurrence, proposals int) *randmodel.SwapModel {
	return &randmodel.SwapModel{
		Base:                   ds.d,
		ProposalsPerOccurrence: perOccurrence,
		Proposals:              proposals,
	}
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
	c, err := ds.ResolveConfig(k, cfg, false)
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		Alpha: c.Alpha, Beta: c.Beta, Epsilon: c.Epsilon, Delta: c.Delta, Seed: c.Seed,
		RunProcedure1: c.WithBaseline, Correction: c.Correction,
		Workers: c.Workers, Progress: c.Progress,
	}
	if c.SwapNull {
		opts.NullModel = ds.swapModel(c.SwapProposalsPerOccurrence, c.SwapProposals)
	}
	if c.RemotePool != nil {
		opts.Runner = ds.newRangeRunner(&c)
		opts.RangeSize = c.RemotePool.rangeSize(c.Delta)
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
		if rep.NumSignificant <= int64(c.MaxPatterns) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ps, err := ds.Mine(MineOptions{K: k, MinSupport: rep.SStar, Workers: c.Workers})
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
	c, err := ds.ResolveConfig(k, cfg, true)
	if err != nil {
		return 0, err
	}
	_, warm := trace.Start(ctx, "dataset.warmup")
	freqs := ds.frequencies()
	warm.End()
	m := randmodel.IndependentModel{
		T:     ds.d.NumTransactions(),
		Freqs: freqs,
	}
	mcfg := montecarlo.Config{
		K: k, Delta: c.Delta, Epsilon: c.Epsilon, Seed: c.Seed,
		Workers: c.Workers, Progress: c.Progress,
	}
	if c.RemotePool != nil {
		mcfg.Runner = ds.newRangeRunner(&c)
		mcfg.RangeSize = c.RemotePool.rangeSize(c.Delta)
	}
	res, err := montecarlo.FindPoissonThresholdCtx(ctx, m, mcfg)
	if err != nil {
		return 0, fmt.Errorf("sigfim: %w", err)
	}
	return res.SMin, nil
}
