package service

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
)

// clampFrac maps an arbitrary fuzzed float into the [0, 1) range the
// resolver accepts, sending NaN/Inf/out-of-range values to 0 (the "use the
// default" spelling).
func clampFrac(v float64) float64 {
	if !(v >= 0 && v < 1) { // also catches NaN
		return 0
	}
	return v
}

// clampNonNeg maps an arbitrary fuzzed int into [0, 2^30): the resolver
// accepts it, a +1 perturbation cannot overflow, and no swap chain over
// fuzzPartialData's occurrences overflows an int.
func clampNonNeg(v int) int {
	if v < 0 {
		return 0
	}
	return v % (1 << 30)
}

// otherFrac returns a valid budget that resolves differently from v, whose
// default is def.
func otherFrac(v, def float64) float64 {
	if v == 0 {
		v = def
	}
	if v == 0.5 {
		return 0.25
	}
	return 0.5
}

// FuzzCacheKeyCanonical fuzzes the cache-key normal form, which keys a
// statistical job on its Config as sigfim.ResolveConfig resolves it against
// the job's dataset. From one fuzzed configuration it derives a second
// request that spells every implicit default out explicitly and perturbs
// every knob the analysis ignores (Workers and Algorithm always; alpha,
// beta, baseline, correction and max patterns for smin jobs; swap knobs the
// chosen null does not read), and asserts both requests land on the same
// cache key; no accepted algorithm name may move it. Then it moves each
// result-bearing field in turn, and the key must move with it: seed,
// delta, epsilon, k, kind and the dataset hash always; alpha, beta, correction and max patterns for significant jobs;
// and the swap knob the chosen null reads. A resolver that drifts from the
// pipeline's defaults, leaks an ignored knob into the key (splitting cache
// slots), or drops a relevant one (serving one analysis's bytes for
// another) fails here.
func FuzzCacheKeyCanonical(f *testing.F) {
	f.Add(true, 2, 0.0, 0.0, 0.0, 0, uint64(9), false, 0, false, 0, 0, uint8(0), 3, "h1")
	f.Add(true, 3, 0.1, 0.2, 0.05, 500, uint64(1), true, 50, true, 4, 0, uint8(1), 0, "h2")
	f.Add(true, 1, 0.0, 0.0, 0.0, 0, uint64(0), false, 0, true, 0, 900, uint8(2), 8, "")
	f.Add(false, 4, 0.9, 0.0, 0.5, 12, uint64(777), true, 3, false, 5, 6, uint8(3), 1, "deadbeef")
	f.Add(true, 2, 0.0, 0.0, 0.0, 40, uint64(5), false, 0, false, 0, 0, uint8(16), 0, "h3")
	f.Add(true, 2, 0.5, 0.5, 0.5, 40, uint64(5), true, 0, false, 0, 0, uint8(23), 0, "h4")
	ds, err := sigfim.ReadFIMI(strings.NewReader(fuzzPartialData))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, significant bool, k int,
		alpha, beta, epsilon float64, delta int, seed uint64,
		baseline bool, maxPatterns int, swapNull bool, swapPPO, swapProposals int,
		sel uint8, workersB int, hash string) {

		kind := KindSMin
		if significant {
			kind = KindSignificant
		}
		// sel picks the algorithm and, above that, the correction.
		algos := []string{"", sigfim.AlgoAuto, sigfim.AlgoEclat, sigfim.AlgoApriori, sigfim.AlgoFPGrowth}
		corrections := []string{"", sigfim.CorrectionBY, sigfim.CorrectionBonferroni, sigfim.CorrectionHolm, sigfim.CorrectionWestfallYoung}
		cfg := sigfim.Config{
			Alpha:                      clampFrac(alpha),
			Beta:                       clampFrac(beta),
			Epsilon:                    clampFrac(epsilon),
			Delta:                      clampNonNeg(delta),
			Seed:                       seed,
			WithBaseline:               baseline,
			Correction:                 corrections[int(sel)/len(algos)%len(corrections)],
			MaxPatterns:                clampNonNeg(maxPatterns),
			SwapNull:                   significant && swapNull, // smin jobs reject SwapNull
			SwapProposalsPerOccurrence: clampNonNeg(swapPPO),
			SwapProposals:              clampNonNeg(swapProposals),
			Algorithm:                  algos[int(sel)%len(algos)],
		}
		k = max(1, clampNonNeg(k))
		a := JobRequest{Dataset: "d", Kind: kind, K: k, Config: &cfg}

		// b is the same request with nothing left implicit and every
		// knob the analysis ignores perturbed.
		bcfg := cfg
		bcfg.Workers = clampNonNeg(workersB) // performance-only, any kind
		if bcfg.Epsilon == 0 {
			bcfg.Epsilon = 0.01
		}
		if bcfg.Delta == 0 {
			bcfg.Delta = 1000
		}
		bcfg.Algorithm = algos[(int(sel)+1)%len(algos)]
		if kind == KindSignificant {
			if bcfg.Alpha == 0 {
				bcfg.Alpha = 0.05
			}
			if bcfg.Beta == 0 {
				bcfg.Beta = 0.05
			}
			if bcfg.MaxPatterns == 0 {
				bcfg.MaxPatterns = 100000
			}
			switch {
			case bcfg.Correction != "":
				// A correction implies the baseline, and its name is
				// case-normalized.
				bcfg.WithBaseline = true
				bcfg.Correction = strings.ToUpper(bcfg.Correction)
			case bcfg.WithBaseline:
				bcfg.Correction = sigfim.CorrectionBY
			}
			switch {
			case !bcfg.SwapNull:
				// Independence null: the swap chain knobs cannot matter.
				bcfg.SwapProposalsPerOccurrence = clampNonNeg(swapPPO) + 3
				bcfg.SwapProposals = clampNonNeg(swapProposals) + 7
			case bcfg.SwapProposals > 0:
				// An absolute chain length overrides the per-occurrence
				// knob, so the latter cannot matter.
				bcfg.SwapProposalsPerOccurrence = clampNonNeg(swapPPO) + 3
			default:
				// Per-occurrence path: spelling out the default of 8 must
				// not split the slot.
				if bcfg.SwapProposalsPerOccurrence == 0 {
					bcfg.SwapProposalsPerOccurrence = 8
				}
			}
		} else {
			// smin jobs ignore Procedure 2's knobs, the baseline and the
			// null selection.
			bcfg.Alpha = clampFrac(alpha + 0.25)
			bcfg.Beta = clampFrac(beta + 0.25)
			bcfg.WithBaseline = !baseline
			bcfg.Correction = corrections[(int(sel)+1)%len(corrections)]
			bcfg.MaxPatterns = clampNonNeg(maxPatterns) + 11
			bcfg.SwapProposalsPerOccurrence = clampNonNeg(swapPPO) + 3
			bcfg.SwapProposals = clampNonNeg(swapProposals) + 7
		}
		b := JobRequest{Dataset: "d", Kind: kind, K: k, Config: &bcfg}

		// Both spellings must be accepted by the same checks the engine
		// applies before keying — equivalence over rejected requests would
		// be vacuous.
		var e Engine
		canonOf := func(req JobRequest) canonicalRequest {
			t.Helper()
			err := e.validate(req)
			canon, cerr := canonicalize(ds, req)
			if err != nil || cerr != nil {
				t.Fatalf("request %s k=%d %+v rejected: %v, %v", req.Kind, req.K, req.Config, err, cerr)
			}
			return canon
		}
		keyOf := func(req JobRequest) string { return cacheKeyFor(hash, canonOf(req)) }
		ka, kb := keyOf(a), keyOf(b)
		if ka != kb {
			t.Fatalf("equivalent requests got distinct cache keys:\n%s\n%s", ka, kb)
		}
		if !strings.HasPrefix(ka, hash+"|") {
			t.Fatalf("key %q does not embed dataset hash %q", ka, hash)
		}

		// A nil config is the all-defaults spelling of the zero config.
		if reflect.DeepEqual(cfg, sigfim.Config{}) {
			if nilKey := keyOf(JobRequest{Dataset: "d", Kind: kind, K: k}); nilKey != ka {
				t.Fatalf("nil config keyed differently from zero config:\n%s\n%s", nilKey, ka)
			}
		}

		// Result-bearing fields must move the key.
		moves := func(what, kind string, k int, c sigfim.Config) {
			t.Helper()
			if keyOf(JobRequest{Dataset: "d", Kind: kind, K: k, Config: &c}) == ka {
				t.Fatalf("%s change did not change the cache key %s", what, ka)
			}
		}
		perturb := func(edit func(c *sigfim.Config)) sigfim.Config {
			c := cfg
			edit(&c)
			return c
		}
		moves("seed", kind, k, perturb(func(c *sigfim.Config) { c.Seed++ }))
		moves("delta", kind, k, perturb(func(c *sigfim.Config) { c.Delta++ }))
		moves("epsilon", kind, k, perturb(func(c *sigfim.Config) { c.Epsilon = otherFrac(c.Epsilon, 0.01) }))
		// The miner is a speed choice only: no accepted name moves the key.
		for _, algo := range []string{"", sigfim.AlgoAuto, sigfim.AlgoEclat, "eclat-tids", sigfim.AlgoEclatBit, sigfim.AlgoApriori, sigfim.AlgoFPGrowth} {
			c := perturb(func(c *sigfim.Config) { c.Algorithm = algo })
			if got := keyOf(JobRequest{Dataset: "d", Kind: kind, K: k, Config: &c}); got != ka {
				t.Fatalf("algorithm %q moved the cache key:\n%s\n%s", algo, got, ka)
			}
		}
		moves("k", kind, k+1, cfg)
		if kind == KindSignificant {
			moves("kind", KindSMin, k, perturb(func(c *sigfim.Config) { c.SwapNull = false }))
		} else {
			moves("kind", KindSignificant, k, cfg)
		}
		if cacheKeyFor(hash+"x", canonOf(a)) == ka {
			t.Fatal("dataset hash change did not change the cache key")
		}
		if kind == KindSignificant {
			moves("alpha", kind, k, perturb(func(c *sigfim.Config) { c.Alpha = otherFrac(c.Alpha, 0.05) }))
			moves("beta", kind, k, perturb(func(c *sigfim.Config) { c.Beta = otherFrac(c.Beta, 0.05) }))
			moves("max patterns", kind, k, perturb(func(c *sigfim.Config) { c.MaxPatterns++ }))
			moves("correction", kind, k, perturb(func(c *sigfim.Config) {
				// Holm turns the baseline on, or replaces the correction
				// it runs under.
				c.Correction = sigfim.CorrectionHolm
				if cfg.Correction == sigfim.CorrectionHolm {
					c.Correction = sigfim.CorrectionBY
				}
			}))
			switch {
			case !cfg.SwapNull:
			case cfg.SwapProposals > 0:
				moves("swap proposals", kind, k, perturb(func(c *sigfim.Config) { c.SwapProposals++ }))
			default:
				moves("swap proposals per occurrence", kind, k, perturb(func(c *sigfim.Config) { c.SwapProposalsPerOccurrence++ }))
			}
		}
	})
}

// fuzzPartialData is the small dataset FuzzPartialRequest mines against:
// eight transactions over six items, so any k and floor a fuzzed request
// names stays cheap.
const fuzzPartialData = "0 1 2\n0 1\n1 2 3\n0 1 2 3\n4\n0 2 5\n1 3\n0 1 2 4 5\n"

// fuzzPartialServer is a quiet worker with fuzzPartialData registered; it
// returns the server and the dataset's content hash.
func fuzzPartialServer(tb testing.TB) (*Server, string) {
	tb.Helper()
	s := New(Options{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	info, err := s.Registry().RegisterReader("fuzz", strings.NewReader(fuzzPartialData))
	if err != nil {
		tb.Fatal(err)
	}
	return s, info.Hash
}

// strictPartialRequest decodes body the way a well-formed request must
// parse: one JSON document, no unknown fields, nothing after it.
func strictPartialRequest(body []byte) (sigfim.PartialRequest, bool) {
	var req sigfim.PartialRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&req) != nil {
		return req, false
	}
	_, err := dec.Token()
	return req, err == io.EOF
}

// FuzzPartialRequest drives the worker's POST /v1/partials handler with
// arbitrary bodies; "@hash" in a body stands for the registered dataset's
// hash, so the corpus can address it. The handler must never panic or
// answer 5xx, and it may answer 200 only for a single well-formed request
// document, with a partial echoing the requested range. Requests naming
// more work than a fuzz iteration should do (long ranges or swap chains)
// are skipped.
func FuzzPartialRequest(f *testing.F) {
	valid := `{"dataset_hash":"@hash","from":0,"to":2,"k":2,"floor":1,"seeds":[1,2]}`
	f.Add([]byte(valid))
	f.Add([]byte(valid + "garbage"))
	f.Add([]byte(valid + valid))
	f.Add([]byte(valid + " \n\t"))
	f.Add([]byte(valid[:len(valid)-5]))
	f.Add([]byte(`{"dataset_hash":"@hash","from":3,"to":5,"k":3,"floor":1,"stat_floor":2,"seeds":[7,8],"workers":3}`))
	f.Add([]byte(`{"dataset_hash":"@hash","from":0,"to":1,"k":2,"floor":1,"seeds":[4],"swap_null":true,"swap_proposals":50}`))
	f.Add([]byte(`{"dataset_hash":"@hash","from":0,"to":1,"k":2,"floor":1,"seeds":[4],"extra":1}`))
	f.Add([]byte(`{"dataset_hash":"nope","from":0,"to":1,"k":2,"floor":1,"seeds":[4]}`))
	f.Add([]byte(`{"dataset_hash":"@hash","from":2,"to":1,"k":0,"floor":-1,"seeds":[]}`))
	f.Add([]byte(`{"dataset_hash":"@hash","from":0,"to":1,"k":2,"floor":1,"seeds":[4],"algorithm":"nope"}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	s, hash := fuzzPartialServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		body := bytes.ReplaceAll(data, []byte("@hash"), []byte(hash))
		var peek sigfim.PartialRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&peek) == nil &&
			(peek.To-peek.From > 64 || peek.SwapProposals > 10_000 || peek.SwapProposalsPerOccurrence > 100) {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/partials", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("HTTP %d for %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != 200 {
			return
		}
		req, ok := strictPartialRequest(body)
		if !ok {
			t.Fatalf("HTTP 200 for a body that is not one well-formed request: %q", body)
		}
		var p sigfim.RangePartial
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatalf("HTTP 200 with an undecodable partial for %q: %v", body, err)
		}
		if p.From != req.From || p.To != req.To || p.K != req.K || len(p.Counts) != req.To-req.From {
			t.Fatalf("partial [%d,%d) k=%d with %d counts for request %q", p.From, p.To, p.K, len(p.Counts), body)
		}
	})
}

// TestPartialRequestStrictBody pins the worker's body contract: trailing
// bytes after the request document are a 400, trailing whitespace is not,
// and the 200 partial is one compact JSON line.
func TestPartialRequestStrictBody(t *testing.T) {
	s, hash := fuzzPartialServer(t)
	valid := `{"dataset_hash":"` + hash + `","from":0,"to":2,"k":2,"floor":1,"seeds":[1,2]}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"valid", valid, 200},
		{"trailing whitespace", valid + " \n", 200},
		{"trailing garbage", valid + "garbage", 400},
		{"second document", valid + valid, 400},
		{"trailing brace", valid + "}", 400},
	} {
		rec := postPartialReq(s, tc.body)
		if rec.Code != tc.want {
			t.Fatalf("%s: HTTP %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body)
		}
		if rec.Code != 200 {
			continue
		}
		body := rec.Body.String()
		if strings.Count(body, "\n") != 1 || !strings.HasSuffix(body, "}\n") {
			t.Fatalf("%s: partial is not one compact JSON line: %q", tc.name, body)
		}
		var p sigfim.RangePartial
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil || len(p.Counts) != 2 || len(p.Items) == 0 {
			t.Fatalf("%s: partial %q (err %v) should carry 2 replicates' itemsets", tc.name, body, err)
		}
	}
}
