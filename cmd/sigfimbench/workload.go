package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"sigfim"
	"sigfim/internal/core"
)

// workload is one fixed job shape. Datasets are synthesized from the run's
// seed with sigfim.BenchmarkProfile(profile).Scale(scale).Real(seed); job i
// of a run uses the Monte Carlo seed jobSeed(seed, i).
type workload struct {
	name       string
	profile    string
	scale      int
	k          int
	delta      int
	quickDelta int
	swap       bool   // swap-randomization null instead of independence
	correction string // Procedure 1 correction; "" skips the baseline
	fabric     bool   // jobs go through a sigfimd coordinator with remote workers
}

// The four workloads, each chosen so that one layer dominates the job (see
// README.md for the measured shares):
//
//   - indep-gen: the mining floor is high (s̃ ≈ 1900), so independence-null
//     generation is ~97% of replicate CPU; a sampler change shows here and a
//     miner change should not.
//   - swap-gen: the same data under the swap null; the Markov chain is
//     >99.9% of CPU, so it must not move when the independence sampler does.
//   - sparse-mine: floor ≈ 40 on sparse Bms1 data, so mining is ~99% of
//     replicate CPU; kernel and miner-choice work shows here.
//   - fabric-lowfloor: floor 2 at k = 3 with Westfall–Young through a
//     coordinator and two workers: the hash path, a large merge, multi-MB
//     partials, Procedure 2 and Procedure 1 on thousands of itemsets, and the
//     service's read path on cache hits.
var workloads = []workload{
	{name: "indep-gen", profile: "Retail", scale: 8, k: 2, delta: 1000, quickDelta: 64},
	{name: "swap-gen", profile: "Retail", scale: 8, k: 2, delta: 32, quickDelta: 2, swap: true},
	{name: "sparse-mine", profile: "Bms1", scale: 4, k: 2, delta: 100, quickDelta: 8},
	// quickDelta stays above 19 here: with fewer replicates no Westfall–Young
	// adjusted p-value can reach beta, |R| = 0 makes Report.PowerRatio +Inf,
	// and sigfimd fails the job because JSON cannot encode it.
	{name: "fabric-lowfloor", profile: "Bms1", scale: 4, k: 3, delta: 1000, quickDelta: 40,
		correction: core.CorrectionWestfallYoung, fabric: true},
}

// Run sizes. A timed run starts jobs while one more is expected to end within
// -seconds, and never runs fewer than minTimedJobs; the medians need at least
// that many.
const (
	warmupJobs    = 1
	minTimedJobs  = 3
	hitsPerJob    = 20 // fabric-lowfloor cache-hit resubmits after each fresh job
	setupReps     = 9  // setup_s is the median of this many set-ups
	quickJobs     = 2
	quickHits     = 5
	remoteWorkers = 2 // sigfimd workers behind the fabric-lowfloor coordinator
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// config returns the analysis configuration of one job.
func (w workload) config(quick bool, seed uint64) sigfim.Config {
	c := sigfim.Config{
		Delta:      w.delta,
		Seed:       seed,
		SwapNull:   w.swap,
		Correction: w.correction,
		Workers:    runtime.NumCPU(),
	}
	if quick {
		c.Delta = w.quickDelta
	}
	return c
}

// jobSeed derives job i's Monte Carlo seed from the run seed (SplitMix64).
func jobSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// env is one workload's set-up state.
type env struct {
	w       workload
	ds      *sigfim.Dataset
	cluster *cluster // nil when no server was started
}

func (e *env) close() error {
	if e.cluster == nil {
		return nil
	}
	return e.cluster.close()
}

// setup synthesizes the dataset, computes its content hash, builds its
// vertical index and, when servers > 0, starts a coordinator with servers-1
// remote workers and registers the dataset on all of them. It returns the
// index build time separately: that is the lazy warm-up every first job
// would otherwise pay.
func setup(ctx context.Context, w workload, seed uint64, servers int) (*env, time.Duration, error) {
	spec, err := sigfim.BenchmarkProfile(w.profile)
	if err != nil {
		return nil, 0, err
	}
	ds := spec.Scale(w.scale).Real(seed)
	ds.Hash()
	t := time.Now()
	ds.Profile(w.name) // builds the vertical index and the item supports
	warm := time.Since(t)
	e := &env{w: w, ds: ds}
	if servers > 0 {
		if e.cluster, err = startCluster(ctx, ds, servers-1); err != nil {
			return nil, 0, err
		}
	}
	return e, warm, nil
}

// setupMedian sets up reps times, keeps the last environment, and returns the
// median set-up and warm-up times.
func setupMedian(ctx context.Context, w workload, o options, servers int) (*env, float64, float64, error) {
	reps := setupReps
	if o.quick {
		reps = 1
	}
	var setups, warms []float64
	var e *env
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, 0, err
			}
		}
		t := time.Now()
		var warm time.Duration
		var err error
		if e, warm, err = setup(ctx, w, o.seed, servers); err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, time.Since(t).Seconds())
		warms = append(warms, warm.Seconds())
	}
	return e, median(setups), median(warms), nil
}

// computed is one fresh (non-cache-hit) job.
type computed struct {
	idx  int
	cfg  sigfim.Config
	rep  *sigfim.Report
	raw  []byte // compact report JSON as sigfimd stored it (fabric only)
	wall time.Duration
}

// tally counts operations and failures. Every failed, refused or
// wrong-result operation counts once.
type tally struct {
	attempted, failed int
	log               io.Writer
	prefix            string
}

// op records one attempted operation that failed when err is non-nil.
func (t *tally) op(what string, err error) bool {
	t.attempted++
	return t.mismatch(what, err)
}

// mismatch records a wrong result of an operation already counted.
func (t *tally) mismatch(what string, err error) bool {
	if err == nil {
		return true
	}
	t.failed++
	fmt.Fprintf(t.log, "%s: FAIL %s: %v\n", t.prefix, what, err)
	return false
}

// runJob computes one fresh job, in-process or through the coordinator.
func (e *env) runJob(ctx context.Context, quick bool, idx int, seed uint64) (computed, error) {
	c := computed{idx: idx, cfg: e.w.config(quick, jobSeed(seed, idx))}
	t := time.Now()
	if e.w.fabric {
		st, err := e.cluster.significant(ctx, e.w.k, c.cfg)
		c.wall = time.Since(t)
		if err != nil {
			return c, err
		}
		if st.CacheHit {
			return c, fmt.Errorf("job %s: fresh seed served from the cache", st.ID)
		}
		if c.raw, err = compact(st.Result); err != nil {
			return c, err
		}
		c.rep = new(sigfim.Report)
		return c, json.Unmarshal(c.raw, c.rep)
	}
	cfg := c.cfg
	rep, err := e.ds.SignificantCtx(ctx, e.w.k, &cfg)
	c.wall = time.Since(t)
	c.rep = rep
	return c, err
}

// runTimed is the untraced end-to-end run of one workload.
func runTimed(ctx context.Context, w workload, o options, log io.Writer) (result, error) {
	servers := 0
	if w.fabric {
		servers = 1 + remoteWorkers
	}
	e, setupS, _, err := setupMedian(ctx, w, o, servers)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	t := &tally{log: log, prefix: w.name}
	hits := hitsPerJob
	if o.quick {
		hits = quickHits
	}
	rng := rand.New(rand.NewSource(int64(o.seed)))

	var done []computed
	fresh := func(idx int) (computed, bool) {
		c, err := e.runJob(ctx, o.quick, idx, o.seed)
		if !t.op(fmt.Sprintf("job %d", idx), err) {
			return c, false
		}
		done = append(done, c)
		return c, true
	}
	for i := 0; i < warmupJobs; i++ {
		if _, ok := fresh(i); !ok {
			return result{}, fmt.Errorf("warm-up job %d failed", i)
		}
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return result{}, err
	}
	start := time.Now()
	var walls []float64
	var spent float64 // seconds of the successful timed jobs
	for idx := warmupJobs; ; idx++ {
		tried := idx - warmupJobs
		if o.quick {
			if tried == quickJobs {
				break
			}
		} else if tried >= minTimedJobs {
			// Start a job only if a job of average length still ends inside
			// the window.
			var mean float64
			if len(walls) > 0 {
				mean = spent / float64(len(walls))
			}
			if time.Since(start).Seconds()+mean > float64(o.seconds) {
				break
			}
		}
		c, ok := fresh(idx)
		if !ok {
			continue
		}
		walls = append(walls, c.wall.Seconds())
		spent += c.wall.Seconds()
		if w.fabric {
			for h := 0; h < hits; h++ {
				miss := done[rng.Intn(len(done))]
				_, err := e.cluster.hit(ctx, w.k, miss)
				t.op(fmt.Sprintf("cache hit of job %d", miss.idx), err)
			}
		}
		if ctx.Err() != nil {
			return result{}, ctx.Err()
		}
	}
	runtime.ReadMemStats(&ms1)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return result{}, err
	}
	if len(walls) == 0 {
		return result{}, errors.New("no timed job succeeded")
	}
	jobs := float64(len(walls))
	fmt.Fprintf(log, "%s: job_n=%d timed jobs after %d warm-up, walls %.3f s\n", w.name, len(walls), warmupJobs, walls)
	ms := metricSet{
		"job_s":            median(walls),
		"cpu_s_per_job":    (cpuSeconds(ru1) - cpuSeconds(ru0)) / jobs,
		"alloc_mb_per_job": float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / jobs,
		"peak_rss_mb":      float64(ru1.Maxrss) * 1024 / 1e6,
		"setup_s":          setupS,
	}

	// Verification runs after the timed phase so it never inflates it.
	orc := oracleFor(w, o)
	for _, c := range done {
		t.mismatch(fmt.Sprintf("job %d report", c.idx), errors.Join(
			checkReport(e.ds, w, c.rep), orc.check(c.idx, c.rep)))
	}
	if w.fabric && len(done) > 0 {
		first := done[0]
		t.op("fabric result equals the in-process report", sameAsInProcess(ctx, e.ds, w.k, first))
	}

	metrics, err := ms.build(endToEnd)
	if err != nil {
		return result{}, err
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

// compact strips the indentation sigfimd's JSON encoder adds around an
// embedded result.
func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("compact result: %w", err)
	}
	return buf.Bytes(), nil
}

// sameAsInProcess checks that a job sigfimd computed through its replicate
// workers has exactly the bytes of the same job run in-process.
func sameAsInProcess(ctx context.Context, ds *sigfim.Dataset, k int, c computed) error {
	cfg := c.cfg
	rep, err := ds.SignificantCtx(ctx, k, &cfg)
	if err != nil {
		return err
	}
	return sameBytes(rep, c.raw)
}

// sameBytes checks that raw, a report as sigfimd stored it, is the JSON
// encoding of rep.
func sameBytes(rep *sigfim.Report, raw []byte) error {
	want, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, raw) {
		return fmt.Errorf("%d result bytes from sigfimd differ from the %d of the in-process report", len(raw), len(want))
	}
	return nil
}
