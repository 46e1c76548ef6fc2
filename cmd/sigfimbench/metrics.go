package main

import (
	"fmt"
	"sort"
)

// decl names one reported metric and its unit. The two tables below are the
// benchmark's contract: BENCHMARK.json at the repository root lists the same
// names and units, and main_test.go checks that the two agree.
type decl struct {
	name, unit string
}

// endToEnd is what a user of a significant job sees, measured with tracing
// off over the timed phase of one workload.
var endToEnd = []decl{
	{"job_s", "s"},             // median wall time per computed job
	{"cpu_s_per_job", "s"},     // process user+sys CPU over the timed phase / jobs
	{"alloc_mb_per_job", "MB"}, // runtime TotalAlloc over the timed phase / jobs
	{"peak_rss_mb", "MB"},      // process high-water RSS after the timed phase
	{"setup_s", "s"},           // median of several set-ups (synthesis, hash, index, servers)
}

// perLayer is what the traced pass (-trace 1) reports; README.md maps each
// metric to the layer it isolates and the end-to-end number it should move.
var perLayer = []decl{
	{"job.traced_s", "s"},
	{"job.unaccounted_s", "s"},
	{"trace.overhead", "ratio"},
	{"sigfim.warmup_s", "s"},
	{"montecarlo.s", "s"},
	{"montecarlo.halvings", "count"},
	{"montecarlo.merge_busy_s", "s"},
	{"montecarlo.merge_wait_s", "s"},
	{"montecarlo.pool_util", "ratio"},
	{"montecarlo.search_s", "s"},
	{"montecarlo.search_evals", "count"},
	{"montecarlo.prunes", "count"},
	{"montecarlo.entries", "count"},
	{"montecarlo.itemsets", "count"},
	{"montecarlo.replay_s", "s"},
	{"montecarlo.range_local_ms", "ms"},
	{"randmodel.generate_cpu_s", "s"},
	{"randmodel.indep.ns_per_occurrence", "ns"},
	{"randmodel.swap.ns_per_proposal", "ns"},
	{"mining.replicate_cpu_s", "s"},
	{"mining.auto.ms", "ms"},
	{"mining.eclat-tids.ms", "ms"},
	{"mining.eclat-bits.ms", "ms"},
	{"mining.fpgrowth.ms", "ms"},
	{"mining.apriori.ms", "ms"},
	{"mining.itemsets", "count"},
	{"core.proc2_s", "s"},
	{"core.proc2_steps", "count"},
	{"core.proc1_s", "s"},
	{"core.proc1_tested", "count"},
	{"sigfim.materialize_s", "s"},
	{"sigfim.materialized", "count"},
	{"stats.binomial_tail_ns", "ns"},
	{"fabric.range_rtt_ms", "ms"},
	{"fabric.partial_kb", "KiB"},
	{"fabric.ranges", "count"},
	{"fabric.attempts", "count"},
	{"fabric.retries", "count"},
	{"fabric.local_fallbacks", "count"},
	{"fabric.hedges", "count"},
	{"service.queue_s", "s"},
	{"service.api_s", "s"},
	{"service.post_mc_s", "s"},
	{"service.hit_ms", "ms"},
	{"service.hit_ms_p95", "ms"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line: the contract keys, and nothing else.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects values by name and attaches the declared units.
type metricSet map[string]float64

// build checks that the set holds exactly the declared metrics and returns
// them with their units; a mismatch is a bug in the harness, not in the
// program under test.
func (ms metricSet) build(decls []decl) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := ms[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(out) != len(ms) {
		var extra []string
		for name := range ms {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}

// median returns the median of xs (0 for an empty slice); xs is sorted in
// place.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the linearly interpolated q-quantile of xs, sorting xs in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
