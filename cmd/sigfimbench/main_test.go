package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// parent re-executes itself for one workload.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(runChild(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors the parts of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []fileDecl `json:"end_to_end"`
	PerLayer []fileDecl `json:"per_layer"`
}

type fileDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, harness %s", got, want)
	}
	same := func(kind string, got []decl, file []fileDecl) {
		if len(got) != len(file) {
			t.Errorf("%s: harness declares %d metrics, BENCHMARK.json %d", kind, len(got), len(file))
			return
		}
		for i, d := range got {
			if d.name != file[i].Name || d.unit != file[i].Unit {
				t.Errorf("%s[%d]: harness %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, file[i].Name, file[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
}

// TestQuickRun runs every workload, untraced and traced, at smoke-test
// sizes: every declared metric must appear with its unit, no operation may
// fail, and every traced pass must pass the layer-accounting check (a
// failure there makes the run incorrect).
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, tc := range []struct {
		trace string
		decls []decl
	}{{"0", endToEnd}, {"1", perLayer}} {
		t.Run("trace="+tc.trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), []string{"-quick", "-trace", tc.trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d\nstderr:\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			for _, w := range workloads {
				for _, d := range tc.decls {
					m, ok := res.Metrics[w.name+"/"+d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("%s/%s: got %+v (present %v), want unit %s", w.name, d.name, m, ok, d.unit)
					}
				}
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %q", args, stdout.String())
		}
	}
}
