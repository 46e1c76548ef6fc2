package service_test

import (
	"context"
	"errors"
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
// library only: JSON cannot carry NaN. Rows at the Delta cap would run a
// million replicates when accepted, so the library runs them under a
// context canceled before the call and an accepted job is canceled at
// once.
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
		{"ignored swap length", sigfim.Config{SwapProposalsPerOccurrence: 5}, both, false},
		{"no correction", sigfim.Config{Correction: ""}, both, false},
		{"by correction", sigfim.Config{Correction: "by"}, both, false},
		{"spaced upper-case correction", sigfim.Config{Correction: " BY "}, both, false},
		{"holm correction", sigfim.Config{Correction: "holm"}, both, false},
		{"delta at the cap", sigfim.Config{Delta: 1 << 20}, both, false},
		{"delta above the cap", sigfim.Config{Delta: 1<<20 + 1}, both, true},
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
		costly := cfg.Delta >= 1<<20
		for _, kind := range c.kinds {
			ctx, cancel := context.WithCancel(context.Background())
			if costly {
				cancel()
			}
			var libErr error
			if kind == service.KindSMin {
				_, libErr = d.FindSMinCtx(ctx, 2, &cfg)
			} else {
				_, libErr = d.SignificantCtx(ctx, 2, &cfg)
			}
			cancel()
			if errors.Is(libErr, context.Canceled) {
				libErr = nil
			}
			if (libErr != nil) != c.bad {
				t.Errorf("%s, %s: library err = %v, want bad = %v", c.name, kind, libErr, c.bad)
			}
			if strings.HasPrefix(c.name, "NaN") {
				continue
			}
			st, code := submit(t, ts, service.JobRequest{Dataset: "golden", Kind: kind, K: 2, Config: &cfg})
			if costly && code == http.StatusAccepted {
				doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil, nil)
			}
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

// TestRemovedConfigFieldsRejected: WithBaseline and SwapProposals are not
// Config fields (Correction alone selects the baseline, and
// SwapProposalsPerOccurrence alone sets the chain length), so a job
// request naming either answers 400 with the field's name instead of
// running another analysis than the one asked for.
func TestRemovedConfigFieldsRejected(t *testing.T) {
	srv, ts := newTestServer(t, service.Options{Workers: 1})
	for field, config := range map[string]string{
		"WithBaseline":  `{"WithBaseline":true}`,
		"SwapProposals": `{"SwapNull":true,"SwapProposals":20000}`,
	} {
		body := `{"dataset":"golden","kind":"significant","k":2,"config":` + config + `}`
		var e map[string]string
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body), &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", field, code)
		}
		if !strings.Contains(e["error"], field) {
			t.Errorf("%s: error %q does not name the field", field, e["error"])
		}
	}
	if n := srv.Engine().Counters().Submitted; n != 0 {
		t.Errorf("%d jobs admitted, want 0", n)
	}
}
