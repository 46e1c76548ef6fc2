package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sigfim"
	"sigfim/internal/service"
)

const goldenPath = "../../testdata/golden_input.dat"

// TestRunExitCodes drives the extracted run() through the CLI's error
// surface: every failure mode must land on stderr with the documented
// non-zero exit status — never a panic — and the happy paths must exit 0.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string // substring; "" = don't care
		wantStdout string // substring; "" = don't care
	}{
		{"no args", nil, 2, "usage:", ""},
		{"help", []string{"help"}, 0, "usage:", ""},
		{"unknown subcommand", []string{"transmogrify"}, 2, "unknown subcommand", ""},
		{"bad flag", []string{"mine", "-bogus"}, 2, "flag provided but not defined", ""},
		{"flag help", []string{"mine", "-h"}, 0, "-minsup", ""},
		{"missing input", []string{"mine", "-minsup", "5"}, 1, "missing -in", ""},
		{"unreadable input", []string{"mine", "-in", "/no/such/file.dat", "-minsup", "5"}, 1, "no such file", ""},
		{"bad algorithm", []string{"mine", "-in", goldenPath, "-minsup", "5", "-algo", "quantum"}, 1, "unknown algorithm", ""},
		{"smin missing input", []string{"smin"}, 1, "missing -in", ""},
		{"smin bad path", []string{"smin", "-in", "/no/such/file.dat"}, 1, "no such file", ""},
		{"significant bad path", []string{"significant", "-in", "/no/such/file.dat"}, 1, "no such file", ""},
		{"closed bad path", []string{"closed", "-in", "/no/such/file.dat"}, 1, "no such file", ""},
		{"rules bad path", []string{"rules", "-in", "/no/such/file.dat"}, 1, "no such file", ""},
		{"smin bad delta", []string{"smin", "-in", goldenPath, "-delta=-1"}, 1, "Delta", ""},
		{"smin bad null", []string{"smin", "-in", goldenPath, "-null", "bogus"}, 1, "unknown null model", ""},
		{"smin rejects swap null", []string{"smin", "-in", goldenPath, "-null", "swap"}, 1, "independence null", ""},
		{"significant bad null", []string{"significant", "-in", goldenPath, "-null", "bogus"}, 1, "unknown null model", ""},
		{"significant bad alpha", []string{"significant", "-in", goldenPath, "-k", "2", "-alpha", "1.5"}, 1, "Alpha must be in [0, 1)", ""},
		{"mine ok", []string{"mine", "-in", goldenPath, "-minsup", "80", "-k", "2", "-top", "3"}, 0, "", "itemsets with support >= 80"},
		{"smin ok", []string{"smin", "-in", goldenPath, "-delta", "30", "-seed", "5"}, 0, "", "s_min = "},
		{"significant swap ok", []string{"significant", "-in", goldenPath, "-delta", "30", "-seed", "5", "-null", "swap", "-swap-ppo", "2", "-top", "0"}, 0, "", "null model: swap randomization"},
		{"closed ok", []string{"closed", "-in", goldenPath, "-minsup", "100", "-top", "3"}, 0, "", "closed itemsets"},
		{"maximal ok", []string{"closed", "-in", goldenPath, "-minsup", "100", "-maximal", "-top", "3"}, 0, "", "maximal itemsets"},
		{"maximal bad path", []string{"closed", "-in", "/no/such/file.dat", "-maximal"}, 1, "no such file", ""},
		{"maximal bad flag", []string{"closed", "-in", goldenPath, "-maximal", "-bogus"}, 2, "flag provided but not defined", ""},
		{"jobs no subcommand", []string{"jobs"}, 2, "usage: sigfim jobs", ""},
		{"jobs unknown subcommand", []string{"jobs", "transmogrify"}, 2, "unknown subcommand", ""},
		{"jobs help", []string{"jobs", "help"}, 0, "usage: sigfim jobs", ""},
		{"jobs get missing id", []string{"jobs", "get", "-server", "http://127.0.0.1:1"}, 1, "missing job id", ""},
		{"jobs watch missing id", []string{"jobs", "watch", "-server", "http://127.0.0.1:1"}, 1, "missing job id", ""},
		{"jobs list unreachable", []string{"jobs", "list", "-server", "http://127.0.0.1:1"}, 1, "connection refused", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d\nstdout: %s\nstderr: %s",
					code, tc.wantCode, stdout.String(), stderr.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.wantStderr)
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout %q missing %q", stdout.String(), tc.wantStdout)
			}
			if code != 0 && stderr.Len() == 0 {
				t.Error("non-zero exit with empty stderr")
			}
		})
	}
}

// TestClosedMaximalOutput pins the -maximal wiring semantically: the printed
// maximal family is nonempty, is a subset of the closed family (every maximal
// itemset is closed), is no larger than it, and matches the library call it
// wraps — and the closed-only diagnostic line stays off the maximal output.
func TestClosedMaximalOutput(t *testing.T) {
	runOut := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	closedOut := runOut("closed", "-in", goldenPath, "-minsup", "100", "-top", "0")
	maximalOut := runOut("closed", "-in", goldenPath, "-minsup", "100", "-maximal", "-top", "0")

	if strings.Contains(maximalOut, "largest closed itemset") {
		t.Errorf("maximal output carries the closed-only diagnostic:\n%s", maximalOut)
	}

	itemLines := func(out string) []string {
		var lines []string
		for _, l := range strings.Split(out, "\n") {
			// Pattern rows print as "  [items]  support N"; header and
			// diagnostic lines are unindented.
			if strings.HasPrefix(l, "  ") && strings.Contains(l, "  support ") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	closedLines, maximalLines := itemLines(closedOut), itemLines(maximalOut)
	if len(maximalLines) == 0 {
		t.Fatal("no maximal itemsets printed; test is vacuous")
	}
	if len(maximalLines) > len(closedLines) {
		t.Fatalf("%d maximal itemsets but only %d closed ones", len(maximalLines), len(closedLines))
	}
	closedSet := make(map[string]bool, len(closedLines))
	for _, l := range closedLines {
		closedSet[l] = true
	}
	for _, l := range maximalLines {
		if !closedSet[l] {
			t.Errorf("maximal itemset %q is not in the closed family", strings.TrimSpace(l))
		}
	}

	// The CLI must print exactly what the library mines.
	d, err := sigfim.OpenFIMI(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := d.MaximalItemsets(100)
	if got := len(maximalLines); got != len(want) {
		t.Fatalf("CLI printed %d maximal itemsets, library mined %d", got, len(want))
	}
}

// TestJobsSubcommandE2E drives "sigfim jobs list/get/watch" against a real
// in-process sigfimd: watch must follow a job to completion over SSE, get
// must print the full status JSON (result included), and list must render
// the job's row without result payloads.
func TestJobsSubcommandE2E(t *testing.T) {
	srv := service.New(service.Options{
		Workers: 1, QueueCap: 4,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if _, err := srv.Registry().RegisterFile("golden", goldenPath); err != nil {
		t.Fatalf("register golden: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	// No jobs yet: list says so.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"jobs", "list", "-server", ts.URL}, &stdout, &stderr); code != 0 {
		t.Fatalf("jobs list: exit %d, stderr %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "no jobs") {
		t.Fatalf("empty listing = %q, want 'no jobs'", stdout.String())
	}

	st, err := srv.Engine().Submit(service.JobRequest{
		Dataset: "golden", Kind: service.KindSMin, K: 2,
		Config: &sigfim.Config{Delta: 4000, Seed: 12},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"jobs", "watch", "-server", ts.URL, st.ID}, &stdout, &stderr); code != 0 {
		t.Fatalf("jobs watch: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, st.ID) || !strings.Contains(out, "done") {
		t.Fatalf("watch output %q lacks the job id and terminal state", out)
	}
	if !strings.Contains(stdout.String(), "4000/4000") {
		t.Fatalf("watch output %q lacks final progress 4000/4000", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"jobs", "get", "-server", ts.URL, st.ID}, &stdout, &stderr); code != 0 {
		t.Fatalf("jobs get: exit %d, stderr %s", code, stderr.String())
	}
	var got service.JobStatus
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("jobs get output is not JSON: %v\n%s", err, stdout.String())
	}
	if got.ID != st.ID || got.State != service.StateDone || len(got.Result) == 0 {
		t.Fatalf("jobs get = %s/%s with %d result bytes; want done with result", got.ID, got.State, len(got.Result))
	}
	// The server sends the stored result bytes verbatim; the CLI indents
	// what it prints for people to read, so only the value must match.
	if strings.Count(stdout.String(), "\n") < 3 {
		t.Errorf("jobs get output is not indented:\n%s", stdout.String())
	}
	stored, err := srv.Engine().Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var gotResult, storedResult any
	if err := json.Unmarshal(got.Result, &gotResult); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stored.Result, &storedResult); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotResult, storedResult) {
		t.Errorf("jobs get result %s decodes to another value than the stored %s", got.Result, stored.Result)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"jobs", "list", "-server", ts.URL}, &stdout, &stderr); code != 0 {
		t.Fatalf("jobs list: exit %d, stderr %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, st.ID) || !strings.Contains(out, "done") || !strings.Contains(out, "4000/4000") {
		t.Fatalf("listing %q lacks the finished job's row", out)
	}

	// Unknown job: exit 1 with the server's error on stderr.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"jobs", "get", "-server", ts.URL, "nope"}, &stdout, &stderr); code != 1 {
		t.Fatalf("jobs get nope: exit %d, want 1", code)
	}
}
