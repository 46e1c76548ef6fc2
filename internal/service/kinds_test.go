package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sigfim"
	"sigfim/internal/service"
)

// Job-kind surface tests for the mining kinds (closed, maximal, rules) and
// the correction knob: response bytes bit-identical to the direct library
// calls, canonicalized cache keys (variant spellings share one slot), and
// the admission errors that keep malformed requests out of the queue.

// compactResult returns a status envelope's result in compact form. The
// server sends the engine's stored bytes verbatim, so compacting leaves
// them as they are.
func compactResult(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestClosedMaximalJobsBitIdentical(t *testing.T) {
	direct, err := sigfim.OpenFIMI(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, service.Options{Workers: 1})

	cases := []struct {
		kind string
		want service.ItemsetsResult
	}{
		{service.KindClosed, service.ItemsetsResult{MinSupport: 3, Itemsets: direct.ClosedItemsets(3)}},
		{service.KindMaximal, service.ItemsetsResult{MinSupport: 3, Itemsets: direct.MaximalItemsets(3)}},
	}
	for _, c := range cases {
		c.want.NumItemsets = len(c.want.Itemsets)
		wantBytes, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		st, code := submit(t, ts, service.JobRequest{Dataset: "golden", Kind: c.kind, MinSupport: 3})
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d (err %q)", c.kind, code, st.Error)
		}
		final := waitState(t, ts, st.ID, service.StateDone)
		if got := compactResult(t, final.Result); !bytes.Equal(got, wantBytes) {
			t.Errorf("%s job differs from direct call.\njob:    %s\ndirect: %s", c.kind, got, wantBytes)
		}

		// Resubmitting with an irrelevant analysis config canonicalizes to
		// the same key and must be a synchronous cache hit with the bytes.
		st2, code := submit(t, ts, service.JobRequest{
			Dataset: "golden", Kind: c.kind, MinSupport: 3,
			Config: &sigfim.Config{Delta: 500, Seed: 7, Workers: 3, Algorithm: sigfim.AlgoApriori},
		})
		if code != http.StatusOK || !st2.CacheHit {
			t.Fatalf("%s: variant resubmit status %d cacheHit %v, want cache hit", c.kind, code, st2.CacheHit)
		}
		if !bytes.Equal(st2.Result, final.Result) {
			t.Errorf("%s: cached bytes differ from computed bytes", c.kind)
		}
	}
}

func TestRulesJobBitIdenticalAndCanonical(t *testing.T) {
	direct, err := sigfim.OpenFIMI(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	ropts := sigfim.RuleOptions{MinSupport: 3, MinConfidence: 0.5}
	plain, err := direct.Rules(ropts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(service.RulesResult{
		MinSupport: 3, MinConfidence: 0.5, MaxLen: 4,
		NumRules: len(plain), Rules: plain,
	})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, service.Options{Workers: 1})
	st, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindRules, MinSupport: 3, MinConfidence: 0.5,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (err %q)", code, st.Error)
	}
	final := waitState(t, ts, st.ID, service.StateDone)
	if got := compactResult(t, final.Result); !bytes.Equal(got, want) {
		t.Errorf("rules job differs from direct call.\njob:    %s\ndirect: %s", got, want)
	}

	// MaxLen 0 canonicalizes to the library default of 4: spelling the
	// default out must share the cache slot.
	st2, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindRules, MinSupport: 3, MinConfidence: 0.5, MaxLen: 4,
	})
	if code != http.StatusOK || !st2.CacheHit {
		t.Fatalf("explicit max_len=4 resubmit: status %d cacheHit %v, want cache hit", code, st2.CacheHit)
	}

	// A positive Beta switches to SignificantRules and is a different key.
	sig, err := direct.SignificantRules(ropts, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	wantSig, err := json.Marshal(service.RulesResult{
		MinSupport: 3, MinConfidence: 0.5, MaxLen: 4, Beta: 0.05,
		NumRules: len(sig), Rules: sig,
	})
	if err != nil {
		t.Fatal(err)
	}
	st3, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindRules, MinSupport: 3, MinConfidence: 0.5,
		Config: &sigfim.Config{Beta: 0.05},
	})
	if code != http.StatusAccepted {
		t.Fatalf("significant-rules submit: status %d", code)
	}
	final3 := waitState(t, ts, st3.ID, service.StateDone)
	if got := compactResult(t, final3.Result); !bytes.Equal(got, wantSig) {
		t.Errorf("significant-rules job differs from direct call.\njob:    %s\ndirect: %s", got, wantSig)
	}
}

func TestCorrectionInCacheKey(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	base := service.JobRequest{Dataset: "golden", Kind: service.KindSignificant, K: 2}

	// {WithBaseline: true} and {Correction: "by"} canonicalize identically:
	// the second submission must be a cache hit.
	base.Config = &sigfim.Config{Delta: 40, Seed: 3, WithBaseline: true}
	st1, code := submit(t, ts, base)
	if code != http.StatusAccepted {
		t.Fatalf("baseline submit: status %d (err %q)", code, st1.Error)
	}
	first := waitState(t, ts, st1.ID, service.StateDone)

	base.Config = &sigfim.Config{Delta: 40, Seed: 3, Correction: "by"}
	st2, code := submit(t, ts, base)
	if code != http.StatusOK || !st2.CacheHit {
		t.Fatalf("correction=by resubmit: status %d cacheHit %v, want cache hit", code, st2.CacheHit)
	}
	if !bytes.Equal(st2.Result, first.Result) {
		t.Error("correction=by served different bytes than with_baseline=true")
	}

	// A different correction is a different analysis: must miss and produce
	// a report labeled with its correction.
	base.Config = &sigfim.Config{Delta: 40, Seed: 3, Correction: sigfim.CorrectionWestfallYoung}
	st3, code := submit(t, ts, base)
	if code != http.StatusAccepted {
		t.Fatalf("westfall-young submit: status %d, want 202 (miss)", code)
	}
	final := waitState(t, ts, st3.ID, service.StateDone)
	var rep sigfim.Report
	if err := json.Unmarshal(final.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Baseline == nil || rep.Baseline.Correction != sigfim.CorrectionWestfallYoung {
		t.Fatalf("report baseline = %+v, want westfall-young", rep.Baseline)
	}
}

// TestAlgorithmNotInCacheKey: every analysis mines with auto, so a
// significant job resubmitted with only Algorithm changed is a synchronous
// cache hit serving the stored bytes.
func TestAlgorithmNotInCacheKey(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	req := service.JobRequest{Dataset: "golden", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Delta: 40, Seed: 3, Correction: sigfim.CorrectionWestfallYoung}}
	st1, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (err %q)", code, st1.Error)
	}
	first := waitState(t, ts, st1.ID, service.StateDone)
	for _, algo := range []string{sigfim.AlgoApriori, sigfim.AlgoFPGrowth, sigfim.AlgoEclatBit, sigfim.AlgoAuto} {
		cfg := *req.Config
		cfg.Algorithm = algo
		req.Config = &cfg
		st, code := submit(t, ts, req)
		if code != http.StatusOK || !st.CacheHit {
			t.Fatalf("Algorithm %q resubmit: status %d cacheHit %v, want cache hit", algo, code, st.CacheHit)
		}
		if !bytes.Equal(st.Result, first.Result) {
			t.Errorf("Algorithm %q: cached bytes differ from computed bytes", algo)
		}
	}
}

func TestJobValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	cases := []struct {
		name string
		req  service.JobRequest
		want []string
	}{
		{
			"unknown kind enumerates valid kinds",
			service.JobRequest{Dataset: "golden", Kind: "frequent", K: 2},
			[]string{"significant", "smin", "closed", "maximal", "rules"},
		},
		{
			"closed with k",
			service.JobRequest{Dataset: "golden", Kind: service.KindClosed, K: 2, MinSupport: 3},
			[]string{"min_support, not k"},
		},
		{
			"closed without min_support",
			service.JobRequest{Dataset: "golden", Kind: service.KindClosed},
			[]string{"min_support must be >= 1"},
		},
		{
			"significant with min_support",
			service.JobRequest{Dataset: "golden", Kind: service.KindSignificant, K: 2, MinSupport: 3},
			[]string{"do not apply"},
		},
		{
			"maximal with min_confidence",
			service.JobRequest{Dataset: "golden", Kind: service.KindMaximal, MinSupport: 3, MinConfidence: 0.5},
			[]string{"apply only to"},
		},
		{
			"unknown correction",
			service.JobRequest{Dataset: "golden", Kind: service.KindSignificant, K: 2,
				Config: &sigfim.Config{Correction: "bh"}},
			[]string{"bonferroni", "holm", "by", "westfall-young"},
		},
	}
	for _, c := range cases {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), &e)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
			continue
		}
		for _, frag := range c.want {
			if !strings.Contains(e.Error, frag) {
				t.Errorf("%s: error %q missing %q", c.name, e.Error, frag)
			}
		}
	}
}
