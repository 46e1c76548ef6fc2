package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"sigfim"
	"sigfim/internal/service"
)

// Swap-null service tests: the engine accepts swap `significant` jobs,
// serves them bit-identical to the direct library call, and canonicalizes
// the null-model fields (null model name, burn-in knobs) into the cache key.

func TestSwapSignificantEndToEnd(t *testing.T) {
	direct, err := sigfim.OpenFIMI(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &sigfim.Config{Delta: 60, Seed: 9, SwapNull: true}
	rep, err := direct.Significant(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, service.Options{Workers: 2})
	st, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2, Config: cfg,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (state %s, err %q)", code, st.State, st.Error)
	}
	final := waitState(t, ts, st.ID, service.StateDone)
	if final.CacheHit {
		t.Fatal("first swap submission reported a cache hit")
	}
	var got bytes.Buffer
	if err := json.Compact(&got, final.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("swap service result differs from direct call.\nservice: %s\ndirect:  %s", got.Bytes(), want)
	}

	// Spelling out the default burn-in is the same canonical request: the
	// cache answers synchronously with the stored bytes.
	st2, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Delta: 60, Seed: 9, SwapNull: true, SwapProposalsPerOccurrence: 8, Workers: 1},
	})
	if code != http.StatusOK || !st2.CacheHit || st2.State != service.StateDone {
		t.Fatalf("default-spelled swap resubmit: status %d, cache_hit %v, state %s", code, st2.CacheHit, st2.State)
	}

	// The same parameters under the independence null are a different
	// canonical request: no cache hit, and a (generally) different report.
	st3, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Delta: 60, Seed: 9},
	})
	if code != http.StatusAccepted {
		t.Fatalf("independence submit: status %d", code)
	}
	if st3.CacheHit {
		t.Fatal("independence request hit the swap-null cache slot")
	}
	waitState(t, ts, st3.ID, service.StateDone)

	// A different burn-in is a different canonical request too.
	st4, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Delta: 60, Seed: 9, SwapNull: true, SwapProposalsPerOccurrence: 4},
	})
	if code != http.StatusAccepted || st4.CacheHit {
		t.Fatalf("ppo=4 submit: status %d, cache_hit %v (want a fresh run)", code, st4.CacheHit)
	}
	waitState(t, ts, st4.ID, service.StateDone)
}

func TestSwapCanonicalizationIgnoresIrrelevantKnobs(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})

	// The swap chain length is meaningless under the independence null and
	// must not split the cache.
	first, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Delta: 40, Seed: 3},
	})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	waitState(t, ts, first.ID, service.StateDone)
	st, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2,
		Config: &sigfim.Config{Delta: 40, Seed: 3, SwapProposalsPerOccurrence: 5},
	})
	if code != http.StatusOK || !st.CacheHit {
		t.Fatalf("independence + stray swap length: status %d, cache_hit %v (want cache hit)", code, st.CacheHit)
	}
}

func TestSwapKnobValidation(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	body := `{"dataset":"golden","kind":"significant","k":2,"config":{"SwapNull":true,"SwapProposalsPerOccurrence":-1}}`
	var e map[string]string
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader([]byte(body)), &e); code != http.StatusBadRequest {
		t.Errorf("body %s: status %d, want 400", body, code)
	}
}

// TestSwapChainOverflowRejectedAtSubmit: a swap chain whose proposals per
// occurrence times the dataset's occurrences overflows an int can never
// run, so the engine refuses it with a 400 at submit instead of admitting a
// job that fails once it runs.
func TestSwapChainOverflowRejectedAtSubmit(t *testing.T) {
	srv, ts := newTestServer(t, service.Options{Workers: 1})
	body := fmt.Sprintf(`{"dataset":"golden","kind":"significant","k":2,"config":{"Delta":20,"SwapNull":true,"SwapProposalsPerOccurrence":%d}}`, math.MaxInt)
	var e map[string]any
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader([]byte(body)), &e)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d (%v), want 400", code, e)
	}
	if msg, _ := e["error"].(string); !strings.Contains(msg, "swap chain length") {
		t.Errorf("error %q does not name the swap chain length", e["error"])
	}
	if n := srv.Engine().Counters().Submitted; n != 0 {
		t.Errorf("%d jobs admitted, want 0", n)
	}
}
