package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"sigfim"
)

// The library's materialization caps: Report.Significant is filled only when
// Q_{k,s*} is at most Config.MaxPatterns (default), and Procedure 1 lists at
// most this many flagged itemsets.
const (
	maxPatterns = 100_000
	maxFamily   = 200_000
)

// checkReport verifies a significant-job report against an independent
// recount of the observed dataset: every k-itemset with support >= s_min is
// mined once with FP-Growth (a different miner from the one the job used),
// and the ladder counts, the materialized family at s*, and the Procedure 1
// baseline must all agree with it. It needs no oracle, so it runs at every
// seed.
func checkReport(ds *sigfim.Dataset, w workload, rep *sigfim.Report) error {
	if rep == nil {
		return fmt.Errorf("no report")
	}
	if rep.K != w.k || rep.SMin < 1 {
		return fmt.Errorf("report k=%d s_min=%d, want k=%d and s_min >= 1", rep.K, rep.SMin, w.k)
	}
	ps, err := ds.Mine(sigfim.MineOptions{K: w.k, MinSupport: rep.SMin, Algorithm: sigfim.AlgoFPGrowth})
	if err != nil {
		return fmt.Errorf("recount: %w", err)
	}
	support := make(map[string]int, len(ps))
	for _, p := range ps {
		support[itemsKey(p.Items)] = p.Support
	}
	countAtLeast := func(s int) int64 {
		var n int64
		for _, p := range ps {
			if p.Support >= s {
				n++
			}
		}
		return n
	}

	if len(rep.Steps) > 0 && rep.Steps[0].S != rep.SMin {
		return fmt.Errorf("ladder starts at s=%d, want s_min=%d", rep.Steps[0].S, rep.SMin)
	}
	for i, st := range rep.Steps {
		if want := countAtLeast(st.S); st.Q != want {
			return fmt.Errorf("ladder step s=%d: Q=%d, recount %d", st.S, st.Q, want)
		}
		if st.Rejected && i != len(rep.Steps)-1 {
			return fmt.Errorf("ladder continued past the rejected step s=%d", st.S)
		}
	}
	if rep.Infinite {
		if rep.NumSignificant != 0 || len(rep.Significant) != 0 {
			return fmt.Errorf("s* = ∞ but %d significant itemsets reported", rep.NumSignificant)
		}
		if n := len(rep.Steps); n > 0 && rep.Steps[n-1].Rejected {
			return fmt.Errorf("s* = ∞ but the last ladder step was rejected")
		}
	} else {
		n := len(rep.Steps)
		if n == 0 || !rep.Steps[n-1].Rejected || rep.Steps[n-1].S != rep.SStar || rep.Steps[n-1].Q != rep.NumSignificant {
			return fmt.Errorf("s*=%d with Q=%d does not match the ladder's rejected step", rep.SStar, rep.NumSignificant)
		}
		if rep.NumSignificant <= maxPatterns && int64(len(rep.Significant)) != rep.NumSignificant {
			return fmt.Errorf("%d itemsets materialized, want %d", len(rep.Significant), rep.NumSignificant)
		}
		for _, p := range rep.Significant {
			if len(p.Items) != w.k || p.Support < rep.SStar || support[itemsKey(p.Items)] != p.Support {
				return fmt.Errorf("materialized itemset %v support %d disagrees with the recount (%d)", p.Items, p.Support, support[itemsKey(p.Items)])
			}
		}
	}

	if w.correction == "" {
		if rep.Baseline != nil {
			return fmt.Errorf("baseline present without a correction")
		}
		return nil
	}
	b := rep.Baseline
	if b == nil {
		return fmt.Errorf("baseline missing under correction %q", w.correction)
	}
	if b.Correction != w.correction || b.NumTested != len(ps) || b.NumSignificant > b.NumTested || len(b.Significant) != min(b.NumSignificant, maxFamily) {
		return fmt.Errorf("baseline %s tested %d flagged %d listed %d, recount tested %d",
			b.Correction, b.NumTested, b.NumSignificant, len(b.Significant), len(ps))
	}
	for _, p := range b.Significant {
		if support[itemsKey(p.Items)] != p.Support {
			return fmt.Errorf("baseline itemset %v support %d disagrees with the recount", p.Items, p.Support)
		}
	}
	return nil
}

func itemsKey(items []uint32) string {
	var sb strings.Builder
	for _, it := range items {
		fmt.Fprintf(&sb, "%d,", it)
	}
	return sb.String()
}

// oracleFile holds the expected outcome of every job index of a default-seed
// run: [s_min, s* (-1 for ∞), Q at s*, |R| (-1 without a baseline)].
// Regenerate it with -record-oracle after a change that is meant to alter
// results.
//
//go:embed oracle.json
var oracleJSON []byte

// oracleJobs is how many job indices the oracle covers per workload; a
// default run at -seconds 60 stays below it.
const oracleJobs = 32

type oracleFile struct {
	Seed      uint64              `json:"seed"`
	Workloads map[string][][4]int `json:"workloads"`
}

type oracle [][4]int

// oracleFor returns the expected outcomes for a run, or nil when the run's
// seed or sizes differ from the ones the oracle was recorded at.
func oracleFor(w workload, o options) oracle {
	if o.quick || o.seed != defaultSeed {
		return nil
	}
	var f oracleFile
	if err := json.Unmarshal(oracleJSON, &f); err != nil || f.Seed != defaultSeed {
		// A corrupt oracle must not silently pass: an empty entry list for a
		// default run fails every check below.
		return oracle{}
	}
	return f.Workloads[w.name]
}

func outcome(rep *sigfim.Report) [4]int {
	e := [4]int{rep.SMin, rep.SStar, int(rep.NumSignificant), -1}
	if rep.Infinite {
		e[1] = -1
	}
	if rep.Baseline != nil {
		e[3] = rep.Baseline.NumSignificant
	}
	return e
}

// check compares job idx's report with the recorded outcome.
func (orc oracle) check(idx int, rep *sigfim.Report) error {
	if orc == nil || rep == nil {
		return nil
	}
	if idx >= len(orc) {
		if len(orc) == 0 {
			return fmt.Errorf("oracle has no entries for this workload")
		}
		return nil
	}
	if got := outcome(rep); got != orc[idx] {
		return fmt.Errorf("job %d: (s_min, s*, Q, |R|) = %v, oracle %v", idx, got, orc[idx])
	}
	return nil
}

// recordOracle recomputes every workload's first oracleJobs jobs at the
// default seed, in-process (fabric results are byte-identical to in-process
// ones, which every timed fabric run re-checks), and writes the oracle file.
func recordOracle(ctx context.Context, path string, log io.Writer) error {
	f := oracleFile{Seed: defaultSeed, Workloads: map[string][][4]int{}}
	for _, w := range workloads {
		e, _, err := setup(ctx, w, defaultSeed, 0)
		if err != nil {
			return err
		}
		for i := 0; i < oracleJobs; i++ {
			cfg := w.config(false, jobSeed(defaultSeed, i))
			rep, err := e.ds.SignificantCtx(ctx, w.k, &cfg)
			if err != nil {
				return fmt.Errorf("%s job %d: %w", w.name, i, err)
			}
			if err := checkReport(e.ds, w, rep); err != nil {
				return fmt.Errorf("%s job %d: %w", w.name, i, err)
			}
			f.Workloads[w.name] = append(f.Workloads[w.name], outcome(rep))
			fmt.Fprintf(log, "%s job %d: %v\n", w.name, i, outcome(rep))
		}
	}
	names := make([]string, 0, len(f.Workloads))
	for name := range f.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "{\n  \"seed\": %d,\n  \"workloads\": {\n", f.Seed)
	for i, name := range names {
		rows := make([]string, len(f.Workloads[name]))
		for j, e := range f.Workloads[name] {
			rows[j] = fmt.Sprintf("[%d, %d, %d, %d]", e[0], e[1], e[2], e[3])
		}
		sep := ","
		if i == len(names)-1 {
			sep = ""
		}
		fmt.Fprintf(&sb, "    %q: [\n      %s\n    ]%s\n", name, strings.Join(rows, ",\n      "), sep)
	}
	sb.WriteString("  }\n}\n")
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
