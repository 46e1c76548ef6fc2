package service_test

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"sigfim"
	"sigfim/internal/service"
)

// TestLibraryAndServiceAgreeOnConfigs: Significant and FindSMin error on a
// configuration exactly when POST /v1/jobs answers 400 for the same kind,
// and the 400 carries the library's message. NaN rows run against the
// library only: JSON cannot carry NaN.
func TestLibraryAndServiceAgreeOnConfigs(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	d, err := sigfim.OpenFIMI(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	both := []string{service.KindSignificant, service.KindSMin}
	sig := []string{service.KindSignificant}
	nan := math.NaN()
	for _, c := range []struct {
		name  string
		cfg   sigfim.Config
		kinds []string
		bad   bool
	}{
		{"defaults", sigfim.Config{}, both, false},
		{"ignored swap knobs", sigfim.Config{SwapProposalsPerOccurrence: 5, SwapProposals: 9}, both, false},
		{"alpha 1", sigfim.Config{Alpha: 1}, both, true},
		{"alpha above 1", sigfim.Config{Alpha: 1.5}, both, true},
		{"negative alpha", sigfim.Config{Alpha: -0.1}, both, true},
		{"NaN alpha", sigfim.Config{Alpha: nan}, both, true},
		{"beta 1", sigfim.Config{Beta: 1}, both, true},
		{"negative beta", sigfim.Config{Beta: -0.2}, both, true},
		{"NaN beta", sigfim.Config{Beta: nan}, both, true},
		{"epsilon above 1", sigfim.Config{Epsilon: 1.5}, both, true},
		{"negative epsilon", sigfim.Config{Epsilon: -0.01}, both, true},
		{"NaN epsilon", sigfim.Config{Epsilon: nan}, both, true},
		{"negative delta", sigfim.Config{Delta: -1}, both, true},
		{"negative max patterns", sigfim.Config{MaxPatterns: -1}, both, true},
		{"negative workers", sigfim.Config{Workers: -1}, both, true},
		{"negative swap ppo", sigfim.Config{SwapNull: true, SwapProposalsPerOccurrence: -1}, sig, true},
		{"negative swap proposals", sigfim.Config{SwapNull: true, SwapProposals: -7}, sig, true},
		{"negative ignored swap ppo", sigfim.Config{SwapProposalsPerOccurrence: -1}, both, true},
		{"unknown algorithm", sigfim.Config{Algorithm: "quantum"}, both, true},
		{"unknown correction", sigfim.Config{Correction: "bh"}, both, true},
		{"smin swap null", sigfim.Config{SwapNull: true}, []string{service.KindSMin}, true},
		{"swap chain overflow", sigfim.Config{SwapNull: true, SwapProposalsPerOccurrence: math.MaxInt}, sig, true},
	} {
		cfg := c.cfg
		if cfg.Delta == 0 {
			cfg.Delta = 20 // keeps an accepted row cheap
		}
		for _, kind := range c.kinds {
			var libErr error
			if kind == service.KindSMin {
				_, libErr = d.FindSMin(2, &cfg)
			} else {
				_, libErr = d.Significant(2, &cfg)
			}
			if (libErr != nil) != c.bad {
				t.Errorf("%s, %s: library err = %v, want bad = %v", c.name, kind, libErr, c.bad)
			}
			if strings.HasPrefix(c.name, "NaN") {
				continue
			}
			st, code := submit(t, ts, service.JobRequest{Dataset: "golden", Kind: kind, K: 2, Config: &cfg})
			if (code == http.StatusBadRequest) != (libErr != nil) {
				t.Errorf("%s, %s: service answered %d (%q) but library err = %v", c.name, kind, code, st.Error, libErr)
				continue
			}
			if libErr != nil && !strings.Contains(st.Error, libErr.Error()) {
				t.Errorf("%s, %s: service error %q does not carry the library's %q", c.name, kind, st.Error, libErr)
			}
		}
	}
}

// TestUnknownDatasetBeforeBadConfig: Submit looks the dataset up before it
// resolves the config against it, so an unknown dataset answers 404 even
// when the config is bad too.
func TestUnknownDatasetBeforeBadConfig(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	_, code := submit(t, ts, service.JobRequest{Dataset: "nope", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Alpha: 1.5}})
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
}
