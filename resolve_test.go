package sigfim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestNaNBudgetsRejected: a NaN Alpha, Beta or Epsilon is an error from
// both entry points. A range check of the form "x <= 0 || x >= 1" is false
// for NaN and lets it through, and a NaN budget then yields a wrong report
// (s* = ∞ for NaN Alpha or Beta, a moved ŝ_min for NaN Epsilon) with no
// error.
func TestNaNBudgetsRejected(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"Alpha", Config{Alpha: nan}},
		{"Beta", Config{Beta: nan}},
		{"Epsilon", Config{Epsilon: nan}},
	} {
		c.cfg.Delta, c.cfg.Seed = 120, 9
		if rep, err := d.Significant(2, &c.cfg); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("Significant with NaN %s: err = %v (report %+v), want an error naming it", c.name, err, rep)
		}
		if s, err := d.FindSMin(2, &c.cfg); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("FindSMin with NaN %s: err = %v (s_min %d), want an error naming it", c.name, err, s)
		}
	}
}

// TestBadConfigRejectedBeforeAnyReplicate: every bad configuration errors
// before Algorithm 1 merges a single replicate, so a bad budget costs no
// Monte Carlo work; Procedure 2, which reads Alpha and Beta, runs only
// after all of Algorithm 1.
func TestBadConfigRejectedBeforeAnyReplicate(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		k        int
		cfg      Config
		findSMin bool // FindSMin only; Significant otherwise
	}{
		{"alpha above 1", 2, Config{Alpha: 1.5}, false},
		{"negative beta", 2, Config{Beta: -0.2}, false},
		{"alpha 1 on smin", 2, Config{Alpha: 1}, true},
		{"epsilon 1", 2, Config{Epsilon: 1}, false},
		{"negative delta", 2, Config{Delta: -1}, false},
		{"negative max patterns", 2, Config{MaxPatterns: -1}, false},
		{"negative workers", 2, Config{Workers: -1}, true},
		{"unknown algorithm", 2, Config{Algorithm: "quantum"}, false},
		{"unknown correction", 2, Config{Correction: "bh"}, false},
		{"negative swap length", 2, Config{SwapNull: true, SwapProposalsPerOccurrence: -1}, false},
		{"swap chain overflow", 2, Config{SwapNull: true, SwapProposalsPerOccurrence: math.MaxInt}, false},
		{"smin swap null", 2, Config{SwapNull: true}, true},
		{"k 0", 0, Config{}, false},
	} {
		var merged atomic.Int64
		cfg := c.cfg
		cfg.Progress = func(done, total int) { merged.Add(1) }
		if c.findSMin {
			_, err = d.FindSMin(c.k, &cfg)
		} else {
			_, err = d.Significant(c.k, &cfg)
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if n := merged.Load(); n > 0 {
			t.Errorf("%s: rejected after %d replicate merges, want none", c.name, n)
		}
	}
}

// TestResolveConfig pins the resolved form: defaults filled, the
// correction normalized, what the analysis ignores zeroed, and a resolved Config
// resolving to itself.
func TestResolveConfig(t *testing.T) {
	d, err := FromTransactions([][]uint32{{0, 1}, {1, 2}, {0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defaults := Config{Alpha: 0.05, Beta: 0.05, Epsilon: 0.01, Delta: 1000, MaxPatterns: 100000, Algorithm: AlgoAuto}
	with := func(edit func(c *Config)) Config {
		c := defaults
		edit(&c)
		return c
	}
	for _, c := range []struct {
		name     string
		in       *Config
		findSMin bool
		want     Config
	}{
		{"nil", nil, false, defaults},
		{"spelled-out defaults", &defaults, false, defaults},
		{"no correction runs no baseline", &Config{Correction: ""}, false, defaults},
		{"blank correction runs no baseline", &Config{Correction: "  "}, false, defaults},
		{"by runs BY", &Config{Correction: "by"}, false,
			with(func(c *Config) { c.Correction = CorrectionBY })},
		{"correction is trimmed and lowercased", &Config{Correction: " BY "}, false,
			with(func(c *Config) { c.Correction = CorrectionBY })},
		{"holm runs Holm", &Config{Correction: "holm"}, false,
			with(func(c *Config) { c.Correction = CorrectionHolm })},
		{"delta at the cap", &Config{Delta: maxDelta}, false,
			with(func(c *Config) { c.Delta = maxDelta })},
		{"independence ignores the swap length", &Config{SwapProposalsPerOccurrence: 3, Workers: 2}, false,
			with(func(c *Config) { c.Workers = 2 })},
		{"swap default length", &Config{SwapNull: true}, false,
			with(func(c *Config) { c.SwapNull, c.SwapProposalsPerOccurrence = true, 8 })},
		{"swap length kept", &Config{SwapNull: true, SwapProposalsPerOccurrence: 3}, false,
			with(func(c *Config) { c.SwapNull, c.SwapProposalsPerOccurrence = true, 3 })},
		{"smin drops Procedure 2 and the baseline", &Config{Alpha: 0.1, Beta: 0.2, MaxPatterns: 5, Correction: "holm", Seed: 4}, true,
			with(func(c *Config) { c.Alpha, c.Beta, c.MaxPatterns, c.Seed = 0, 0, 0, 4 })},
	} {
		got, err := d.ResolveConfig(2, c.in, c.findSMin)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: resolved to\n%+v, want\n%+v", c.name, got, c.want)
		}
		if again, err := d.ResolveConfig(2, &got, c.findSMin); err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("%s: resolving the resolved config gave %+v, %v", c.name, again, err)
		}
	}
}

// TestAlgorithm1CollectsMinPsOnlyForWestfallYoung: Algorithm 1 pays for
// the Westfall-Young min-p distribution exactly when the baseline reads it,
// never for another correction, no baseline, or FindSMin.
func TestAlgorithm1CollectsMinPsOnlyForWestfallYoung(t *testing.T) {
	d, err := FromTransactions([][]uint32{{0, 1}, {1, 2}, {0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg      Config
		findSMin bool
		want     bool
	}{
		{Config{}, false, false},
		{Config{Correction: CorrectionBY}, false, false},
		{Config{Correction: CorrectionHolm}, false, false},
		{Config{Correction: CorrectionWestfallYoung}, false, true},
		{Config{Correction: CorrectionWestfallYoung}, true, false},
	} {
		r, err := d.ResolveConfig(2, &c.cfg, c.findSMin)
		if err != nil {
			t.Fatal(err)
		}
		if _, mcfg := d.algorithm1(2, &r); mcfg.CollectMinPs != c.want {
			t.Errorf("%+v (FindSMin %v): CollectMinPs = %v, want %v", c.cfg, c.findSMin, mcfg.CollectMinPs, c.want)
		}
	}
}

// TestDeltaCapRejectedBeforeAnyAllocation: a Delta above maxDelta is an
// error from the resolver and from Significant, which must refuse it before
// Algorithm 1 sizes its per-replicate seeds. The context is canceled before
// the call, so a build without the cap gives up before mining too.
func TestDeltaCapRejectedBeforeAnyAllocation(t *testing.T) {
	d, err := FromTransactions([][]uint32{{0, 1}, {1, 2}, {0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ResolveConfig(2, &Config{Delta: maxDelta}, false); err != nil {
		t.Errorf("Delta = %d: %v", maxDelta, err)
	}
	if _, err := d.ResolveConfig(2, &Config{Delta: maxDelta + 1}, true); err == nil || !strings.Contains(err.Error(), "Delta") {
		t.Errorf("Delta = %d: err = %v, want an error naming Delta", maxDelta+1, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.SignificantCtx(ctx, 2, &Config{Delta: maxDelta + 1}); err == nil || !strings.Contains(err.Error(), "Delta must be") {
		t.Errorf("SignificantCtx with Delta = %d: err = %v, want the resolver's Delta error", maxDelta+1, err)
	}
}
