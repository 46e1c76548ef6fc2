// Command sigfimbench is sigfim's performance ledger: it times whole
// significant jobs — in-process and through sigfimd with replicate workers —
// on four workloads that each isolate one layer, verifies every report, and
// with -trace 1 splits a job into per-layer numbers that must add up to its
// wall time.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash cmd/sigfimbench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-quick]
//	bash cmd/sigfimbench/run.sh -record-oracle cmd/sigfimbench/oracle.json
//
// Without -workload every workload runs in turn. Each workload runs in its own
// child process, so peak RSS and GC state never leak between workloads. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"job_s": {"value": 2.31, "unit": "s"}, ...}}
//
// The exit status is 0 only when every operation succeeded and every report
// was correct. See README.md for the workloads and the metric → layer map.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// childEnv marks a process started by the parent to run one workload.
const childEnv = "SIGFIMBENCH_CHILD"

// defaultSeed is the seed the committed oracle and baseline were recorded at.
const defaultSeed = 20090629

// childTimeout bounds one workload's child process, so an invocation for one
// workload always exits within 180 seconds.
const childTimeout = 170 * time.Second

// options are the parsed command-line flags.
type options struct {
	workload     string
	seed         uint64
	seconds      int
	trace        int
	quick        bool
	recordOracle string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("sigfimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty runs all: "+strings.Join(workloadNames(), ", ")+")")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed every dataset and job seed is derived from")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the timed phase: jobs start while one more is expected to end within it")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer pass instead of the timed phase")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test sizes: small Delta, one set-up, two timed jobs, five cache hits")
	fs.StringVar(&o.recordOracle, "record-oracle", "", "recompute the default-seed oracle and write it to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be >= 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	return o, nil
}

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(runChild(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the parent: it starts one child per selected workload, relays the
// children's logs, prints every metric by name and unit, and ends with the
// combined JSON result line.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "sigfimbench:", err)
		return 2
	}
	if o.recordOracle != "" {
		if err := recordOracle(ctx, o.recordOracle, stderr); err != nil {
			fmt.Fprintln(stderr, "sigfimbench:", err)
			return 1
		}
		return 0
	}
	selected := workloads
	if o.workload != "" {
		w, _ := workloadByName(o.workload)
		selected = []workload{w}
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		res, err := spawnChild(ctx, w.name, args, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "sigfimbench: %s: %v\n", w.name, err)
			return 1
		}
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sortDeclared(names, o.trace == 1)
		for _, name := range names {
			m := res.Metrics[name]
			fmt.Fprintf(stdout, "%-16s %-36s %16.6f %s\n", w.name, name, m.Value, m.Unit)
			key := name
			if len(selected) > 1 {
				key = w.name + "/" + name
			}
			total.Metrics[key] = m
		}
		fmt.Fprintf(stdout, "%-16s %-36s %16d ops, %d failed, correct=%v\n", w.name, "operations", res.Attempted, res.Failed, res.Correct)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "sigfimbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct || total.Failed > 0 {
		return 1
	}
	return 0
}

// sortDeclared orders metric names as the declaration tables list them.
func sortDeclared(names []string, traced bool) {
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	rank := make(map[string]int, len(decls))
	for i, d := range decls {
		rank[d.name] = i
	}
	sort.Slice(names, func(i, j int) bool { return rank[names[i]] < rank[names[j]] })
}

// spawnChild re-executes this binary for one workload and parses the result
// line the child prints last. The child is killed if it outlives
// childTimeout, and always waited for.
func spawnChild(ctx context.Context, name string, args []string, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	childArgs := append(append([]string(nil), args...), "-workload", name)
	cmd := exec.CommandContext(ctx, exe, childArgs...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return result{}, fmt.Errorf("child exceeded %v", childTimeout)
		}
		return result{}, fmt.Errorf("child failed: %w", err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("child result line %q: %w", last, err)
	}
	return res, nil
}

// runChild runs one workload in this process and prints its result line.
func runChild(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sigfimbench:", err)
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintln(stderr, "sigfimbench: child started without a workload")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var res result
	if o.trace == 1 {
		res, err = runTraced(ctx, w, o, stderr)
	} else {
		res, err = runTimed(ctx, w, o, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "sigfimbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "sigfimbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
