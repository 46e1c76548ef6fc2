// Command sigfim mines frequent and statistically significant itemsets from
// FIMI-format transaction files (gzip-compressed input is detected
// transparently).
//
// Subcommands:
//
//	sigfim mine -in data.dat -minsup 100 [-k 2] [-algo auto|eclat|eclat-bits|apriori|fpgrowth] [-workers N] [-top 50]
//	    Classical frequent itemset mining. -algo picks the miner; auto and
//	    eclat run in parallel, the others are serial reference miners.
//	sigfim smin -in data.dat -k 2 [-delta 1000] [-eps 0.01] [-seed 1]
//	    [-workers N] [-workers-remote URL,URL]
//	    Algorithm 1: estimate the Poisson threshold ŝ_min of the dataset's
//	    independence null model. (-null swap is rejected: the standalone
//	    threshold is defined against the paper's independence null; use
//	    "significant -null swap" for a swap-null analysis.)
//	sigfim significant -in data.dat -k 2 [-alpha 0.05] [-beta 0.05]
//	    [-delta 1000] [-correction by|bonferroni|holm|westfall-young]
//	    [-workers N] [-top 50]
//	    [-null independence|swap] [-swap-ppo 8]
//	    [-workers-remote URL,URL]
//	    The full methodology: ŝ_min, the threshold ladder, s*, and the
//	    significant family with its FDR certificate. -null swap replaces the
//	    independence null with margin-preserving swap randomization;
//	    -swap-ppo sets the per-replicate burn-in in proposals per matrix
//	    occurrence. -correction also runs the per-itemset baseline
//	    (Procedure 1) under that multiple-testing correction: by is the
//	    paper's Benjamini-Yekutieli procedure, westfall-young calibrates
//	    against the replicate min-p distribution collected from the same
//	    Monte Carlo replicates (see the README's "Multiple testing
//	    corrections"). Without -correction no baseline runs.
//	    -workers-remote shards the Monte Carlo replicates across running
//	    sigfimd instances that have the same dataset registered (matched by
//	    content hash); the result is bit-identical to a local run.
//	sigfim closed -in data.dat -minsup 100 [-maximal] [-top 50]
//	    Closed itemset mining (LCM-style enumeration); -maximal mines
//	    maximal itemsets (no frequent strict superset) instead.
//	sigfim rules -in data.dat -minsup 100 [-minconf 0.5] [-beta 0.05] [-top 50]
//	    Association rules with exact Binomial and Fisher p-values;
//	    -beta selects the Benjamini-Yekutieli-significant subset.
//	sigfim jobs <list|get|watch|trace|workers> [-server URL] [job-id]
//	    Client for a running sigfimd: list jobs, fetch one job's status and
//	    result, watch a job's live progress over its SSE event stream, print
//	    a completed job's span tree (see the tracing section of the README),
//	    or show a coordinator's remote-worker supervision table (state,
//	    dispatch outcomes, ejections, next health probe).
//	    -server defaults to $SIGFIM_SERVER, then http://127.0.0.1:8080.
//
// The smin and significant subcommands accept -algo for compatibility and
// ignore it (after rejecting an unknown name): every analysis mines with
// auto, since every miner mines the same itemsets. With -workers-remote,
// remote ranges are sized by the worker pool: a static split for the
// first run, then from each worker's observed latency; range size never
// changes result bytes.
//
// Errors go to stderr with a non-zero exit status: 2 for usage errors (bad
// flags, unknown subcommands), 1 for runtime failures (unreadable input,
// pipeline errors).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sigfim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without os.Exit: it dispatches a subcommand and maps errors to
// exit codes (0 ok, 1 runtime error, 2 usage error), writing errors to
// stderr. Tests drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmds := map[string]func([]string, io.Writer, io.Writer) error{
		"mine":        cmdMine,
		"smin":        cmdSMin,
		"significant": cmdSignificant,
		"closed":      cmdClosed,
		"rules":       cmdRules,
		"jobs":        cmdJobs,
	}
	name := args[0]
	switch name {
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	}
	cmd, ok := cmds[name]
	if !ok {
		fmt.Fprintf(stderr, "sigfim: unknown subcommand %q\n", name)
		usage(stderr)
		return 2
	}
	if err := cmd(args[1:], stdout, stderr); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		if _, isUsage := err.(usageError); isUsage {
			// The FlagSet already printed the problem to stderr.
			return 2
		}
		// Library errors already carry the prefix; print it once.
		fmt.Fprintln(stderr, "sigfim:", strings.TrimPrefix(err.Error(), "sigfim: "))
		return 1
	}
	return 0
}

// usageError marks flag-parse failures so run can exit 2 without printing
// the error twice (the FlagSet reports it on stderr as it occurs).
type usageError struct{ error }

// newFlagSet builds a subcommand FlagSet that reports errors on stderr and
// returns them instead of exiting the process.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse wraps FlagSet.Parse, tagging failures as usage errors.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return flag.ErrHelp
		}
		return usageError{err}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: sigfim <mine|smin|significant|closed|rules|jobs> [flags]
run "sigfim <subcommand> -h" for flags`)
}

func load(path string) (*sigfim.Dataset, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -in FILE")
	}
	return sigfim.OpenFIMI(path)
}

func cmdMine(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("mine", stderr)
	in := fs.String("in", "", "input FIMI file")
	minsup := fs.Int("minsup", 0, "absolute support threshold")
	k := fs.Int("k", 0, "itemset size (0 = all sizes)")
	maxLen := fs.Int("maxlen", 0, "max itemset size when -k 0 (0 = unbounded)")
	algo := fs.String("algo", "auto", "auto|eclat|eclat-bits|apriori|fpgrowth")
	top := fs.Int("top", 50, "print at most this many itemsets (0 = all)")
	workers := fs.Int("workers", 0, "mining goroutines (0 = all CPUs, 1 = serial)")
	if err := parse(fs, args); err != nil {
		return err
	}
	d, err := load(*in)
	if err != nil {
		return err
	}
	ps, err := d.Mine(sigfim.MineOptions{
		K: *k, MinSupport: *minsup, MaxLen: *maxLen, Algorithm: *algo,
		Workers: *workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d itemsets with support >= %d\n", len(ps), *minsup)
	printPatterns(stdout, ps, *top)
	return nil
}

// splitWorkers parses a comma-separated -workers-remote list, dropping empty
// entries so "" means no remote workers.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// remoteFlags registers the -workers-remote* flags on fs. After parsing,
// the returned function builds the WorkerPool they describe, or nil when
// -workers-remote lists no worker; the caller closes a non-nil pool.
func remoteFlags(fs *flag.FlagSet) func() *sigfim.WorkerPool {
	remote := fs.String("workers-remote", "", "comma-separated sigfimd worker URLs to shard replicates across")
	timeout := fs.Duration("workers-remote-timeout", 0, "per-range HTTP deadline for remote workers (0 = 2m)")
	hedge := fs.Duration("workers-remote-hedge", 0, "hedge a straggling range onto a second worker after this delay (0 disables)")
	return func() *sigfim.WorkerPool {
		urls := splitWorkers(*remote)
		if len(urls) == 0 {
			return nil
		}
		return sigfim.NewWorkerPool(urls, sigfim.WorkerPoolOptions{Timeout: *timeout, HedgeDelay: *hedge})
	}
}

// parseNull maps a -null flag value onto Config.SwapNull.
func parseNull(name string) (swap bool, err error) {
	switch name {
	case "", "independence":
		return false, nil
	case "swap":
		return true, nil
	}
	return false, fmt.Errorf("unknown null model %q (want independence or swap)", name)
}

func cmdSMin(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("smin", stderr)
	in := fs.String("in", "", "input FIMI file")
	k := fs.Int("k", 2, "itemset size")
	delta := fs.Int("delta", 1000, "Monte Carlo replicates")
	eps := fs.Float64("eps", 0.01, "Poisson tolerance")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all CPUs, 1 = serial)")
	algo := fs.String("algo", "auto", "accepted and ignored: every analysis mines with auto (an unknown name is still an error)")
	null := fs.String("null", "independence", "null model: independence (swap is rejected — see doc)")
	remotePool := remoteFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	swap, err := parseNull(*null)
	if err != nil {
		return err
	}
	pool := remotePool()
	if pool != nil {
		defer pool.Close()
	}
	d, err := load(*in)
	if err != nil {
		return err
	}
	s, err := d.FindSMin(*k, &sigfim.Config{
		Delta: *delta, Epsilon: *eps, Seed: *seed, Workers: *workers, Algorithm: *algo,
		SwapNull: swap, RemotePool: pool,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "s_min = %d (k=%d, delta=%d, eps=%g)\n", s, *k, *delta, *eps)
	return nil
}

func cmdSignificant(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("significant", stderr)
	in := fs.String("in", "", "input FIMI file")
	k := fs.Int("k", 2, "itemset size")
	alpha := fs.Float64("alpha", 0.05, "confidence budget")
	beta := fs.Float64("beta", 0.05, "FDR budget")
	delta := fs.Int("delta", 1000, "Monte Carlo replicates")
	seed := fs.Uint64("seed", 1, "random seed")
	correction := fs.String("correction", "", "also run the per-itemset baseline (Procedure 1) under this correction: by|bonferroni|holm|westfall-young (\"\" = no baseline)")
	top := fs.Int("top", 50, "print at most this many itemsets (0 = all)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all CPUs, 1 = serial)")
	algo := fs.String("algo", "auto", "accepted and ignored: every analysis mines with auto (an unknown name is still an error)")
	null := fs.String("null", "independence", "null model: independence|swap")
	swapPPO := fs.Int("swap-ppo", 0, "swap null: proposals per matrix occurrence per replicate (0 = 8)")
	remotePool := remoteFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	swap, err := parseNull(*null)
	if err != nil {
		return err
	}
	pool := remotePool()
	if pool != nil {
		defer pool.Close()
	}
	d, err := load(*in)
	if err != nil {
		return err
	}
	rep, err := d.Significant(*k, &sigfim.Config{
		Alpha: *alpha, Beta: *beta, Delta: *delta, Seed: *seed,
		Correction: *correction, Workers: *workers, Algorithm: *algo,
		SwapNull: swap, SwapProposalsPerOccurrence: *swapPPO,
		RemotePool: pool,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "k = %d, alpha = %g, beta = %g\n", rep.K, rep.Alpha, rep.Beta)
	if swap {
		fmt.Fprintln(stdout, "null model: swap randomization (item supports and transaction lengths preserved)")
	}
	fmt.Fprintf(stdout, "s_min = %d (Poisson regime)\n", rep.SMin)
	fmt.Fprintln(stdout, "threshold ladder:")
	for _, st := range rep.Steps {
		fmt.Fprintf(stdout, "  s=%-8d Q=%-10d lambda=%-12.4g p=%-12.4g rejected=%v\n",
			st.S, st.Q, st.Lambda, st.PValue, st.Rejected)
	}
	if rep.Infinite {
		fmt.Fprintln(stdout, "s* = infinity: no significant support threshold (data consistent with the null)")
		return nil
	}
	fmt.Fprintf(stdout, "s* = %d: %d significant %d-itemsets (null expects %.4g), FDR <= %g with confidence %g\n",
		rep.SStar, rep.NumSignificant, rep.K, rep.Lambda, rep.Beta, 1-rep.Alpha)
	printPatterns(stdout, rep.Significant, *top)
	if rep.Baseline != nil {
		fmt.Fprintf(stdout, "\n%s baseline (Procedure 1): %d of %d tested flagged; power ratio r = %.3f\n",
			rep.Baseline.Correction, rep.Baseline.NumSignificant, rep.Baseline.NumTested, rep.PowerRatio)
	}
	return nil
}

func cmdClosed(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("closed", stderr)
	in := fs.String("in", "", "input FIMI file")
	minsup := fs.Int("minsup", 0, "absolute support threshold")
	maximal := fs.Bool("maximal", false, "mine maximal itemsets (no frequent strict superset) instead of closed")
	top := fs.Int("top", 50, "print at most this many itemsets (0 = all)")
	if err := parse(fs, args); err != nil {
		return err
	}
	d, err := load(*in)
	if err != nil {
		return err
	}
	if *maximal {
		ps := d.MaximalItemsets(*minsup)
		fmt.Fprintf(stdout, "%d maximal itemsets with support >= %d\n", len(ps), *minsup)
		printPatterns(stdout, ps, *top)
		return nil
	}
	ps := d.ClosedItemsets(*minsup)
	fmt.Fprintf(stdout, "%d closed itemsets with support >= %d\n", len(ps), *minsup)
	printPatterns(stdout, ps, *top)
	if big, ok := d.LargestClosedItemset(*minsup); ok {
		fmt.Fprintf(stdout, "largest closed itemset: %d items at support %d\n", len(big.Items), big.Support)
	}
	return nil
}

func printPatterns(w io.Writer, ps []sigfim.Pattern, top int) {
	for i, p := range ps {
		if top > 0 && i == top {
			fmt.Fprintf(w, "... and %d more\n", len(ps)-top)
			return
		}
		fmt.Fprintf(w, "  %v  support %d\n", p.Items, p.Support)
	}
}

func cmdRules(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("rules", stderr)
	in := fs.String("in", "", "input FIMI file")
	minsup := fs.Int("minsup", 0, "absolute joint-support threshold")
	minconf := fs.Float64("minconf", 0, "minimum confidence")
	maxlen := fs.Int("maxlen", 0, "max joint itemset size (0 = 4)")
	beta := fs.Float64("beta", 0, "if > 0, keep only BY-significant rules at this FDR")
	top := fs.Int("top", 50, "print at most this many rules (0 = all)")
	if err := parse(fs, args); err != nil {
		return err
	}
	d, err := load(*in)
	if err != nil {
		return err
	}
	opts := sigfim.RuleOptions{MinSupport: *minsup, MinConfidence: *minconf, MaxLen: *maxlen}
	var rules []sigfim.AssociationRule
	if *beta > 0 {
		rules, err = d.SignificantRules(opts, *beta)
	} else {
		rules, err = d.Rules(opts)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d rules\n", len(rules))
	for i, r := range rules {
		if *top > 0 && i == *top {
			fmt.Fprintf(stdout, "... and %d more\n", len(rules)-*top)
			break
		}
		fmt.Fprintf(stdout, "  %v => %v  sup=%d conf=%.3f lift=%.2f p=%.3g fisher=%.3g\n",
			r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift, r.PValue, r.FisherP)
	}
	return nil
}
