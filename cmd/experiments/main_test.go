package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes drives the extracted run() through the flag/selection
// error surface (exit 2, message on stderr, no panic) and one fast success
// path (Table 1 on the smallest profile, heavily scaled down).
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string
		wantStdout string
	}{
		{"bad flag", []string{"-bogus"}, 2, "flag provided but not defined", ""},
		{"flag help", []string{"-h"}, 0, "-table", ""},
		{"bad k list", []string{"-k", "2,zero"}, 2, "bad k", ""},
		{"zero k", []string{"-k", "0"}, 2, "bad k", ""},
		{"unknown dataset", []string{"-datasets", "NoSuchProfile"}, 2, "unknown dataset", ""},
		{"bad table", []string{"-table", "9"}, 2, "-table must be 0-5", ""},
		{"negative scale", []string{"-scale=-2"}, 2, "-scale must be >= 0", ""},
		{"empty correction", []string{"-correction", " "}, 2, "-correction must name a correction", ""},
		{"removed swap-proposals flag", []string{"-swap-proposals", "9"}, 2, "flag provided but not defined", ""},
		{"table1 ok", []string{"-table", "1", "-datasets", "Bms1", "-scale", "64"}, 0, "", "== Table 1"},
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

// TestTablesGolden pins the stdout of Tables 3 and 5 byte for byte on
// small profiles: Table 3 with its ladder trace, Table 5 under
// Westfall-Young (s* = 28 and 4 on Bms1/8 for k = 2 and 3), and Table 5
// with Delta = 10, too few replicates for any Westfall-Young rejection,
// where a finite s* over an empty baseline prints r = inf. The goldens
// were recorded from the tables' earlier implementation on the internal
// pipeline, so they also pin the public API to it.
func TestTablesGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"table3_verbose.golden", "-table 3 -verbose -datasets Bms1,Retail -k 2,3 -delta 60 -scale 8"},
		{"table5_westfall_young.golden", "-table 5 -correction westfall-young -datasets Bms1,Retail -k 2,3 -delta 60 -scale 8"},
		{"table5_empty_baseline.golden", "-table 5 -correction westfall-young -datasets Bms1 -k 2,3 -delta 10 -scale 8"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s\ngot:\n%s\nwant:\n%s", tc.golden, stdout.String(), want)
			}
		})
	}
}
