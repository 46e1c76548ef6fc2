// Package sigfim identifies statistically significant frequent itemsets in
// transactional data, implementing the methodology of Kirsch, Mitzenmacher,
// Pietracaprina, Pucci, Upfal and Vandin, "An Efficient Rigorous Approach for
// Identifying Statistically Significant Frequent Itemsets" (ACM PODS 2009).
//
// Classical frequent itemset mining returns every itemset whose support
// clears a user-chosen threshold, with no statistical guarantee: in a random
// dataset with the same item frequencies, plenty of itemsets clear any given
// threshold by chance. This package determines, for a fixed itemset size k,
// a support threshold s* such that the family of k-itemsets with support at
// least s* deviates significantly from the independence null model AND
// carries a bounded false discovery rate:
//
//   - With confidence 1-alpha, the count of k-itemsets with support >= s* is
//     not explained by the null model (a random dataset with the same number
//     of transactions and the same item frequencies).
//   - The expected fraction of false discoveries in the returned family is
//     at most beta.
//
// # Quick start
//
//	d, err := sigfim.OpenFIMI("transactions.dat")
//	if err != nil { ... }
//	report, err := d.Significant(2, nil) // pairs, default alpha=beta=0.05
//	if err != nil { ... }
//	if report.Infinite {
//	    fmt.Println("no significant support threshold: data looks random")
//	} else {
//	    fmt.Printf("s* = %d: %d significant pairs (null expects %.2f)\n",
//	        report.SStar, report.NumSignificant, report.Lambda)
//	}
//
// # Configuration
//
// Config carries the analysis knobs; its zero value (or nil) selects the
// paper's settings: alpha = beta = 0.05, epsilon = 0.01, Delta = 1000
// replicates, at most 100000 materialized itemsets and the independence
// null; every analysis mines with the automatic miner, and Config.Algorithm
// is accepted for compatibility, checked, and otherwise ignored. Dataset.ResolveConfig is the one place its
// defaults and checks live. Significant and FindSMin resolve their Config
// with it before any work, and sigfimd resolves every significant and smin
// job with it at submission, so the service refuses (400, with the same
// message) exactly the configurations the library rejects, and a bad one
// never costs a replicate. Budgets must lie in [0, 1) and counts must be
// >= 0, with 0 selecting the default and NaN an error; the algorithm and
// correction must be known names; FindSMin refuses SwapNull; and a swap
// chain's length must fit an int. The resolved Config has every default
// filled, the baseline settled (a Correction implies it), and what the
// analysis ignores zeroed; sigfimd keys its result cache on it.
//
// # Architecture: paper concepts to packages
//
// The pipeline behind Significant maps onto the internal packages as
// follows; every stage is also reachable individually through the exported
// entry points named below.
//
// Random support model (paper Section 2). The null hypothesis is a dataset
// with the same transaction count t and per-item frequencies f_i, items
// placed independently. internal/randmodel implements it (IndependentModel)
// along with the alternative swap-randomization null (*SwapModel) that
// additionally preserves transaction lengths. Exported as
// Dataset.RandomTwin, Dataset.SwapTwin, GenerateRandom, and — for the
// significance pipeline — Config.SwapNull with its chain-length knobs
// (see "Null models" below).
//
// Poisson regime search, s_min (Algorithm 1). Above a threshold s_min the
// count Q_{k,s} of frequent k-itemsets in a random dataset is approximately
// Poisson, by a Chen-Stein argument whose b1/b2 terms are estimated by Monte
// Carlo: internal/montecarlo generates Delta random replicates, mines each,
// and searches the empirical bound curve for b1+b2 <= eps/4.
// internal/chenstein provides the exact analytic counterpart used as a test
// oracle. Exported as Dataset.FindSMin; the replicate count for a target
// confidence is montecarlo.DeltaForConfidence (Theorem 4).
//
// Threshold selection with FDR control, s* (Procedure 2). internal/core
// tests the geometric ladder s_i = s_min + 2^i against exact Poisson tails
// (internal/stats), rejecting when the observed count Q_{k,s_i} is both
// improbable (p <= alpha_i) and large relative to the null mean
// (Q >= beta_i * lambda_i); the first rejected level is s*. The ladder's
// counts come from one support-histogram mining pass (internal/mining).
// Exported as Dataset.Significant, which returns the full Report including
// the ladder trace.
//
// Per-itemset baseline (Procedure 1). A multiple-testing correction over
// individual itemset p-values, implemented in internal/mht and driven by
// internal/core; the power ratio r = Q_{k,s*}/|R| is the paper's Table 5
// comparison. Exported via Config.WithBaseline and Report.Baseline.
//
// Statistics layer. The correction itself is pluggable (Config.Correction;
// the Correction* constants; setting it implies WithBaseline). internal/mht
// is the pure statistics layer — selection and adjusted-p functions over
// sorted p-value slices, no mining types — and internal/core.Procedure1Ex
// dispatches on the chosen mode: the paper's Benjamini-Yekutieli step-up
// (FDR, the default), Bonferroni and Holm adjusted p-values (FWER), or the
// Westfall-Young min-p resampling adjustment (FWER learned from the joint
// null distribution rather than bounded analytically). Westfall-Young rides
// the replicate engine: under montecarlo.Config.CollectMinPs each Monte
// Carlo replicate also records the minimum p-value over its own mined
// k-itemsets, the per-replicate minima travel inside the fabric's partials
// (so the correction shards across remote workers bit-identically), and
// mht.WestfallYoung turns observed p-values plus the Delta null minima into
// step-down monotone adjusted p-values. Every correction rejects a prefix
// of the sorted p-values with ties kept together, so all four modes share
// Procedure 1's threshold and family-size machinery, and since FWER control
// implies FDR control each slots into the same beta budget. The report's
// Baseline.Correction field records which mode produced the family.
//
// Mining engine. internal/mining implements the miners — Eclat over sorted
// tid lists, a hash-based path for very low thresholds on sparse data,
// closed and maximal itemset enumeration, and three serial reference
// miners (Eclat over dense bitsets, level-wise Apriori with a candidate
// prefix trie, FP-Growth with conditional pattern trees) — behind one
// entry point per operation the method needs, each over the vertical
// layout and every algorithm. Every stage above mines with Auto:
//
//   - Stream (Algorithm 1, Procedure 1): mining.VisitKAlgoScratch emits
//     every k-itemset at a floor.
//   - Count (Procedure 2): mining.SupportHistogramAlgoScratch plus
//     mining.CumulativeQ give Q_{k,s} at every threshold from one pass,
//     without materializing the possibly enormous family.
//   - Materialize (the report): mining.Mine; fixed-k runs collect the
//     stream, and the horizontal reference miners convert the vertical
//     layout to transactions first.
//
// The default algorithm, Auto, has one policy everywhere: the hash path at
// floors <= 8 when enumerating every transaction's k-subsets costs no more
// than walking its co-occurring pairs (sum C(len,k) <= min(3e6,
// sum C(len,2))) and a subset packs into one 64-bit sort word, Eclat over
// tid lists otherwise; bitsets are used only when EclatBits is forced.
// Despite its name the hash path counts by sorting: each subset occurrence
// becomes a packed word, a radix sort groups equal subsets, and the
// frequent ones are emitted in first-occurrence order. The tid-list Eclat
// counts instead of intersecting: every node counts its children's
// supports over a rank-mapped transaction index and builds tid lists only
// for those reaching the floor, emitting exactly the itemsets, supports
// and order intersecting every candidate would.
// internal/dataset supplies the horizontal and vertical layouts plus FIMI
// I/O; internal/bitset the intersection kernels.
// Exported as Dataset.Mine (MineOptions selects algorithm, K, threshold,
// workers), Dataset.CountK, Dataset.ClosedItemsets, Dataset.MaximalItemsets,
// and Dataset.TopKItemsets.
//
// Association rules. internal/rules derives rules from mined itemsets with
// exact Binomial and Fisher significance p-values and BY selection,
// exported as Dataset.Rules and Dataset.SignificantRules.
//
// Benchmarks and experiments. internal/synth reproduces the paper's six
// Table 1 dataset profiles as deterministic generators (exported as
// BenchmarkProfile / BenchmarkSpec); cmd/experiments regenerates Tables
// 1-5, cmd/sigfim is the general-purpose mining CLI, and cmd/fimigen
// synthesizes FIMI files.
//
// Service layer. internal/service and cmd/sigfimd expose the pipeline as a
// long-running HTTP service: a registry of named immutable datasets (each
// content-hashed via Dataset.Hash, with the vertical index built once at
// registration), an asynchronous job engine with five job kinds — the
// statistical kinds significant (SignificantCtx) and smin (FindSMinCtx)
// plus the mining kinds closed, maximal, and rules, whose responses are
// bit-identical to the corresponding direct library calls — on a bounded
// worker pool with queue backpressure and cooperative cancellation, and an
// LRU result cache keyed by (dataset hash, canonicalized request) that
// serves repeated queries the exact bytes of the original computation —
// sound because the pipeline is deterministic for a fixed seed. The context-aware entry points
// (SignificantCtx, FindSMinCtx) check the context at replicate boundaries of
// the Monte Carlo loop; a canceled run returns ctx.Err() and never a partial
// result, so cancellation cannot perturb results that do complete. Config's
// Progress callback surfaces replicate progress for job status reporting.
//
// The service is observable on three surfaces. GET /metrics renders a
// dependency-free Prometheus text exposition (job counters by kind and
// terminal state, queue depth, in-flight gauge, cache hit/miss/entry
// counters, total replicates merged, and per-kind fixed-bucket job-duration
// histograms that observe computed jobs only). GET /v1/jobs/{id}/events
// streams one job's lifecycle as Server-Sent Events: "state" frames for
// every transition (the terminal frame carries the result, matching
// GET /v1/jobs/{id} exactly) and "progress" frames coalesced to at most one
// per 100ms per subscriber, so a stalled client can neither miss a terminal
// state nor back-pressure the engine. internal/client wraps the whole HTTP
// API, including an SSE watcher, and backs the "sigfim jobs" subcommand
// (list, get, watch). Instrumentation never touches result bytes: the
// determinism and cache bit-identity contracts are unaffected.
//
// Distributed replicate fabric. Monte Carlo replicates are embarrassingly
// parallel, so Algorithm 1's replicate loop is factored into an explicit
// range job: internal/montecarlo splits the Delta replicates into
// [from, to) ranges, and MineRange executes one range into a serializable
// Partial that the coordinator folds back replicate-by-replicate in index
// order. The in-process worker pool and remote workers run this same code
// path — "distributed" is only a dispatch decision. Setting
// Config.RemotePool to a WorkerPool over sigfimd base URLs (NewWorkerPool)
// makes Significant/FindSMin fan ranges out over those workers via POST
// /v1/partials (every sigfimd instance serves it; cmd/sigfimd
// -workers-remote configures a coordinator service, and the sigfim
// smin/significant CLIs take the same flag). A
// PartialRequest addresses the dataset by its SHA-256 content hash, so a
// worker provably mines the same bytes or refuses. Because each replicate
// index derives its RNG from its own per-replicate seed and partials merge
// in replicate order, the distributed run is byte-identical to the
// single-process run for both null models, any worker count, and any range
// size — the same bit-identity contract the in-process pool honors, pinned
// end to end by distributed_determinism_test.go. Remote topology is a
// deployment concern, not part of the query: RemotePool, and with it every
// supervision knob below, is excluded from job-request JSON and from the
// result-cache key.
//
// Fault tolerance. Dispatch runs through a WorkerPool supervisor that
// tracks per-worker health from request outcomes plus periodic /healthz
// probes: every range request carries a hard HTTP deadline
// (WorkerPoolOptions.Timeout), a failed range is retried on the next eligible
// worker and finally mined locally through the identical MineRange path, a
// worker that fails repeatedly is ejected and re-probed with exponential
// backoff and jitter until it answers again (then re-admitted with a clean
// slate), a 503/429 shed response backs the worker off for its Retry-After
// window without counting toward ejection, and WorkerPoolOptions.HedgeDelay
// optionally re-dispatches a straggling range to a second worker with the
// first valid partial winning. The worker side sheds load rather than queue
// unboundedly: POST /v1/partials answers 503 + Retry-After while draining
// or over its concurrent-partials cap. Every accepted partial is
// size-bounded, parsed as exactly one JSON document, and validated against
// the requested range before merging, so supervision decides only where a
// range executes — never what it computes — and the bit-identity contract
// holds under every failure mode, which a chaos-proxy fault-injection
// harness (connection drops, latency spikes, truncation, corrupt JSON,
// wrong-range echoes, 5xx bursts) pins in distributed_determinism_test.go.
// One pool can serve many analyses; a sigfimd coordinator keeps one pool
// across all jobs so health state persists between them.
//
// Observability closes the loop on the fabric. Every job records a span
// trace (internal/trace, dependency-free): queue wait, dataset warm-up, the
// Monte Carlo phases, each s̃-halving iteration, and one span per dispatched
// replicate range with its per-worker attempts (URL, attempt number, hedged
// flag, outcome). The recorder rides the context, is nil-safe, and is pure
// observation — trace_noninterference_test.go pins that tracing on or off
// yields byte-identical reports. Traces propagate to workers in the
// X-Sigfim-Trace header so worker logs correlate by trace_id/job_id, are
// retained in a bounded LRU, and are served at GET /v1/jobs/{id}/trace
// ("sigfim jobs trace" renders the tree). The same per-worker latency that
// the trace records feeds a range-latency histogram and EWMA
// (sigfimd_fabric_range_seconds, sigfimd_fabric_replicate_seconds_ewma),
// and when WorkerPoolOptions.RangeSize is 0 the pool autotunes range sizes
// from that EWMA toward WorkerPoolOptions.RangeTarget of wall time per range
// (default 2s, clamped to [1, Delta/workers]) — sizing changes batching
// only, never bytes. An opt-in net/http/pprof listener (sigfimd
// -debug-addr) completes the surface.
//
// # Null models
//
// Two null models ship with the package, and both are first-class citizens
// of the replicate engine: each implements randmodel.InPlaceGenerator, so
// the Monte Carlo loop stays allocation-free in steady state under either.
//
//   - Independence (the default; the paper's reference model): item i
//     appears in each of t transactions independently with its observed
//     frequency f_i. Item supports are preserved in expectation only, and
//     transaction lengths vary freely.
//   - Swap randomization (Config.SwapNull; Gionis et al., KDD 2006): a
//     Markov chain of margin-preserving 2x2 swaps started at the observed
//     dataset. Every replicate preserves BOTH the exact item supports and
//     the exact transaction lengths, so it asks the sharper question of
//     whether the joint structure is explainable by the margins alone.
//
// The swap chain's burn-in is paid per replicate (each replicate restarts
// the chain from the observed dataset, so replicates are independent):
// Config.SwapProposalsPerOccurrence sets it relative to the number of ones
// in the transaction matrix (default 8; Gionis et al. report mixing after a
// small constant), and Config.SwapProposals, when positive, fixes the
// absolute per-replicate proposal count instead. Negative values of either
// are an error.
//
// The chain state is one item per occurrence slot. Occurrences are
// enumerated in (transaction, ascending item) order, so transaction t owns
// a contiguous slot range and a swap only rewrites the items of two slots:
// the range always holds exactly t's current item set, and walking the
// slots in order materializes sorted tid lists directly. Each transaction
// also carries a 64-bit signature, a superset bitmask of its items' hash
// bits: a membership test whose bit is clear answers "absent" without
// looking at the range, and only a set bit costs a linear scan, which
// also rewrites the signature exactly. Because the signature stays a
// superset of the true bits, it never changes an answer. The random draws
// and accept/reject decisions are those of the textbook chain step for
// step, so replicates are fixed by the seed alone. A per-occurrence chain
// length whose product with the number of occurrences overflows an int is
// an error.
//
// The swap null drives Significant and SignificantCtx only. FindSMin is
// independence-only by contract: it reproduces the paper's published
// Algorithm 1, whose soundness guarantee is stated for the independence
// null, and a standalone threshold quoted without its ladder is only
// interpretable against that reference model — so setting Config.SwapNull
// makes FindSMin return an error rather than silently answering with an
// independence-model threshold, and sigfimd maps the same rejection of
// swap smin jobs to HTTP 400. A swap-null analysis reads its s_min from the
// Significant report.
//
// The sigfimd result cache keys a job on its resolved Config (see
// Configuration), which carries only the chain knob the null reads: none
// under the independence null, and under the swap null either the absolute
// SwapProposals or the per-occurrence length with its default of 8 filled
// in. Stray chain knobs therefore never split the cache.
//
// # Parallelism and determinism
//
// Mining and the significance pipeline run on a parallel engine. Both
// MineOptions and Config expose a Workers knob: 0 (the default) uses every
// CPU, 1 forces serial execution, and any other value bounds the worker
// goroutines. Eclat (Auto and AlgoEclat) shards the prefix tree's
// first-item equivalence classes across the pool; the reference miners
// always run serially. The Monte Carlo estimator splits workers between
// replicate-level and intra-mine parallelism.
//
// Both option structs also expose an Algorithm knob (the Algo* constants).
// Only MineOptions reads it: every algorithm mines exactly the same
// itemsets, so the choice is a speed choice, and every statistical stage
// mines with Auto.
//
// The engine guarantees determinism: for a fixed Seed, every
// result — including FindSMin's threshold and the complete Significant
// report — is identical for every worker count. Parallel reductions merge
// per-worker buffers in a fixed order (mining output order even matches the
// serial order exactly), and each Monte Carlo replicate derives its RNG
// from its own per-replicate seed, so scheduling never influences random
// streams.
//
// # Performance: the allocation-free replicate engine
//
// FindSMin's Monte Carlo estimate mines Delta random replicates per
// s-tilde-halving, making generate-mine-merge the hot loop of the whole
// package. That loop reuses all of its storage in steady state:
//
//   - Generation: models implementing randmodel.InPlaceGenerator refill a
//     per-worker vertical dataset in place, reusing the per-item column
//     arrays across replicates; the consumed random stream is identical to
//     fresh generation, so results cannot differ. The independence null
//     builds each item's geometric-gap constants once per job
//     (randmodel.Prepare) and draws gaps through stats.GeometricGap: a
//     table log whose result is trusted only when a margin ~10^4 times its
//     worst error cannot move the integer gap, and recomputed with
//     math.Log otherwise, so every replicate keeps its exact bytes. The
//     uniforms and their table logs are drawn 256 at a time into a
//     stack-held stats.UniformBlock, and the RNG is rewound to the last
//     uniform used at the end of each replicate, so the stream, too, is
//     the per-draw loop's.
//   - Mining: every kernel (Eclat over tid lists or bitsets, FP-Growth,
//     Apriori's horizontal conversion, the low-threshold hash path) threads
//     a reusable per-worker mining.Scratch carrying its DFS buffers, dense
//     columns, tree arenas, and sort buffers. A Scratch is single-goroutine but
//     reusable across calls and dataset shapes; a worker's second replicate
//     allocates nothing. The tid-list kernel counts instead of
//     intersecting: one index of each transaction's frequent-item ranks
//     per mine, then at every prefix one pass over its transactions
//     counting its later-ranked partners, scanned in the order the Eclat
//     DFS would emit them, and one more delivering the transactions to
//     the partners that reach the floor.
//   - Collection: the union set W is indexed by a string-free
//     open-addressing table over the packed item tuples
//     (mining.ItemsetTable) instead of a map keyed by per-itemset strings,
//     and replicate outputs travel in flat recycled arrays.
//
// The cmd/sigfimbench ledger measures the effect end to end
// (alloc_mb_per_job, cpu_s_per_job) and per layer (montecarlo.*, mining.*,
// randmodel.*).
package sigfim
