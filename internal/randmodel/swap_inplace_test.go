package randmodel

import (
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// Swap-generation tests: the occurrence-slot chain behind Generate,
// GenerateInto and SwapRandomize must consume the exact RNG stream of the
// SwapRandomizer oracle (swap_oracle_test.go) and produce the identical
// dataset, including against golden fingerprints captured from earlier
// implementations.

// swapGoldenBase rebuilds the fixed dataset the golden fingerprints were
// captured on: one independence-model draw at seed 99 (n=150, t=3000,
// power-law frequencies), materialized horizontally.
func swapGoldenBase() *dataset.Dataset {
	z := stats.FitPowerLaw(150, 1e-3, 0.12, 4)
	im := IndependentModel{T: 3000, Freqs: z.Frequencies()}
	return im.Generate(stats.NewRNG(99)).Horizontal()
}

// verticalFingerprint hashes a vertical layout column by column.
func verticalFingerprint(v *dataset.Vertical) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	w32 := func(x uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:])
	}
	w32(uint32(v.NumTransactions))
	for it, l := range v.Tids {
		w32(uint32(it))
		w32(uint32(len(l)))
		for _, tid := range l {
			w32(tid)
		}
	}
	return h.Sum64()
}

// swapGoldenFingerprints pins SwapModel generation (ProposalsPerOccurrence 4)
// on swapGoldenBase for seeds 1..5, captured from the pre-refactor allocating
// implementation. Generate, GenerateInto and the oracle must reproduce them.
var swapGoldenFingerprints = map[uint64]uint64{
	1: 0xd951f5d54992b85c,
	2: 0x77c50106d3b5b3f8,
	3: 0x3a96bbe88d813bec,
	4: 0xa9eecdf278321750,
	5: 0x58b35377601206d0,
}

// swapLongBase rebuilds a dense, long-transaction base shaped like the synth
// Pumsb*/16 profile: one independence-model draw at seed 99 over Pumsb*'s
// universe and frequency range (n=2088, fmin 2.04e-5, fmax 0.79) with its
// published mean transaction length 50.5, at t = 49046/16 = 3065. Long
// windows stress the per-transaction membership test that short
// (Retail-like) transactions barely exercise.
func swapLongBase() *dataset.Dataset {
	z := stats.FitPowerLaw(2088, 2.04e-05, 0.79, 50.5)
	im := IndependentModel{T: 49046 / 16, Freqs: z.Frequencies()}
	return im.Generate(stats.NewRNG(99)).Horizontal()
}

// swapLongFingerprints pins SwapModel generation (ProposalsPerOccurrence 4)
// on swapLongBase for seeds 1..3, captured from the sorted-window
// implementation (per-transaction sorted item windows with binary-search
// membership) that preceded the occurrence-slot chain.
var swapLongFingerprints = map[uint64]uint64{
	1: 0xb0808dff3d0c2bcd,
	2: 0xd8b165ce20db7f5d,
	3: 0xa2910209205526fd,
}

func TestSwapGenerateMatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second swap chains")
	}
	m := &SwapModel{Base: swapGoldenBase(), ProposalsPerOccurrence: 4}
	v := &dataset.Vertical{}
	for seed, want := range swapGoldenFingerprints {
		if got := verticalFingerprint(oracleGenerate(m, stats.NewRNG(seed))); got != want {
			t.Errorf("seed %d: oracle fingerprint %#x, want pre-refactor %#x", seed, got, want)
		}
		if got := verticalFingerprint(m.Generate(stats.NewRNG(seed))); got != want {
			t.Errorf("seed %d: Generate fingerprint %#x, want pre-refactor %#x", seed, got, want)
		}
		// The pooled path reuses v across seeds (dirty reuse on purpose).
		m.GenerateInto(stats.NewRNG(seed), v)
		if got := verticalFingerprint(v); got != want {
			t.Errorf("seed %d: GenerateInto fingerprint %#x, want pre-refactor %#x", seed, got, want)
		}
	}
}

func TestSwapGenerateMatchesLongWindowGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second swap chains")
	}
	m := &SwapModel{Base: swapLongBase(), ProposalsPerOccurrence: 4}
	v := &dataset.Vertical{}
	for seed, want := range swapLongFingerprints {
		m.GenerateInto(stats.NewRNG(seed), v)
		if got := verticalFingerprint(v); got != want {
			t.Errorf("seed %d: GenerateInto fingerprint %#x, want sorted-window %#x", seed, got, want)
		}
	}
}

// TestSwapGenerateDegenerateBases: on bases where no swap can ever apply the
// chain must return the base unchanged while consuming exactly the oracle's
// RNG stream — two draws per proposal, none below two occurrences.
func TestSwapGenerateDegenerateBases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		d     *dataset.Dataset
		draws bool // whether the chain consumes RNG values at all
	}{
		// Transactions 0 and 2 hold every item, so every candidate i2 is
		// already in t1 (or i1 in t2) for any pair of distinct transactions.
		{"full-transactions", dataset.MustNew(5, [][]uint32{{0, 1, 2, 3, 4}, {1, 3}, {0, 1, 2, 3, 4}}), true},
		// Every proposal picks two occurrences of the same transaction.
		{"single-transaction", dataset.MustNew(6, [][]uint32{{0, 2, 5}}), true},
		// Fewer than two occurrences among empty transactions (the
		// one-transaction and empty datasets are TestSwapGenerateIntoDegenerate's).
		{"one-occurrence", dataset.MustNew(3, [][]uint32{{}, {1}, {}}), false},
		{"no-occurrences", dataset.MustNew(3, [][]uint32{{}, {}}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := verticalFingerprint(tc.d.Vertical())
			m := &SwapModel{Base: tc.d, ProposalsPerOccurrence: 5}
			v := &dataset.Vertical{}
			for seed := uint64(1); seed <= 3; seed++ {
				r := stats.NewRNG(seed)
				m.GenerateInto(r, v)
				if got := verticalFingerprint(v); got != want {
					t.Fatalf("seed %d: chain moved a base that admits no swap", seed)
				}
				ro := stats.NewRNG(seed)
				sr := NewSwapRandomizer(tc.d)
				if applied := sr.Run(m.proposals(len(sr.occTid)), ro); applied != 0 {
					t.Fatalf("seed %d: oracle applied %d swaps", seed, applied)
				}
				next := r.Uint64()
				if next != ro.Uint64() {
					t.Fatalf("seed %d: RNG consumption differs from the oracle", seed)
				}
				if consumed := next != stats.NewRNG(seed).Uint64(); consumed != tc.draws {
					t.Fatalf("seed %d: chain consumed RNG values = %v, want %v", seed, consumed, tc.draws)
				}
				out := SwapRandomize(tc.d, 5, stats.NewRNG(seed))
				if got := verticalFingerprint(out.Vertical()); got != want {
					t.Fatalf("seed %d: SwapRandomize moved a base that admits no swap", seed)
				}
			}
		})
	}
}

// TestSwapRandomizeZeroProposals: zero (or negative) proposals per
// occurrence runs no chain at all — the input comes back unchanged and the
// stream is untouched. SwapModel's default of 8 must not apply here.
func TestSwapRandomizeZeroProposals(t *testing.T) {
	d := swapGoldenBase()
	want := verticalFingerprint(d.Vertical())
	for _, ppo := range []int{0, -3} {
		r := stats.NewRNG(11)
		out := SwapRandomize(d, ppo, r)
		if got := verticalFingerprint(out.Vertical()); got != want {
			t.Fatalf("ppo %d: SwapRandomize changed the dataset", ppo)
		}
		if r.Uint64() != stats.NewRNG(11).Uint64() {
			t.Fatalf("ppo %d: SwapRandomize consumed RNG values", ppo)
		}
	}
}

// TestSwapReplicateZeroAllocs: a warm chain scratch generates swap
// replicates without allocating. The scratch is driven directly rather than
// through the model's sync.Pool, which a GC may empty at any time.
func TestSwapReplicateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	m := &SwapModel{Base: swapGoldenBase()}
	b := m.prepare()
	proposals := m.proposals(len(b.occTid))
	sc := &swapScratch{}
	v := &dataset.Vertical{}
	r := stats.NewRNG(5)
	replicate := func() {
		sc.reset(b)
		sc.run(b, proposals, r)
		sc.materialize(b, v)
	}
	replicate()
	if allocs := testing.AllocsPerRun(5, replicate); allocs != 0 {
		t.Fatalf("warm swap replicate allocates %v times, want 0", allocs)
	}
}

func TestSwapGenerateIntoMatchesGenerate(t *testing.T) {
	// Small enough to cross-check many seeds exhaustively against the
	// oracle, with a Proposals override in the mix so the absolute-length
	// knob follows the same stream-identity contract.
	d := dataset.MustNew(12, [][]uint32{
		{0, 1, 2}, {1, 2, 3}, {3, 4, 5}, {0, 5, 6}, {6, 7},
		{2, 7, 8}, {8, 9, 10}, {0, 9, 11}, {4, 10, 11}, {1, 6, 9},
	})
	for _, m := range []*SwapModel{
		{Base: d},
		{Base: d, ProposalsPerOccurrence: 3},
		{Base: d, Proposals: 137},
	} {
		v := &dataset.Vertical{}
		for seed := uint64(0); seed < 50; seed++ {
			want := oracleGenerate(m, stats.NewRNG(seed))
			m.GenerateInto(stats.NewRNG(seed), v)
			for name, got := range map[string]*dataset.Vertical{"GenerateInto": v, "Generate": m.Generate(stats.NewRNG(seed))} {
				if got.NumTransactions != want.NumTransactions || len(got.Tids) != len(want.Tids) {
					t.Fatalf("seed %d: %s shape mismatch", seed, name)
				}
				for it := range want.Tids {
					if !reflect.DeepEqual(append([]uint32{}, want.Tids[it]...), append([]uint32{}, got.Tids[it]...)) {
						t.Fatalf("seed %d (ppo=%d proposals=%d): column %d differs between %s and the oracle",
							seed, m.ProposalsPerOccurrence, m.Proposals, it, name)
					}
				}
			}
		}
	}
}

func TestSwapGenerateIntoPreservesMargins(t *testing.T) {
	d := swapGoldenBase()
	m := &SwapModel{Base: d, Proposals: 20000}
	v := &dataset.Vertical{}
	m.GenerateInto(stats.NewRNG(7), v)
	wantSup := d.ItemSupports()
	for it := range v.Tids {
		if len(v.Tids[it]) != wantSup[it] {
			t.Fatalf("item %d support changed: %d -> %d", it, wantSup[it], len(v.Tids[it]))
		}
	}
	// Row margins: rebuild horizontally and compare transaction lengths.
	h := v.Horizontal()
	for tid := 0; tid < d.NumTransactions(); tid++ {
		if len(h.Transaction(tid)) != len(d.Transaction(tid)) {
			t.Fatalf("transaction %d length changed: %d -> %d",
				tid, len(d.Transaction(tid)), len(h.Transaction(tid)))
		}
	}
}

func TestSwapGenerateIntoConcurrent(t *testing.T) {
	// Many goroutines share one model: the base snapshot is built once and
	// every worker draws its own scratch from the pool. Each goroutine's
	// output must match the single-threaded result for its seed.
	d := dataset.MustNew(10, [][]uint32{
		{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 8}, {0, 8, 9}, {1, 5, 9},
	})
	m := &SwapModel{Base: d, ProposalsPerOccurrence: 6}
	want := make([]uint64, 16)
	for seed := range want {
		v := &dataset.Vertical{}
		m.GenerateInto(stats.NewRNG(uint64(seed)), v)
		want[seed] = verticalFingerprint(v)
	}
	var wg sync.WaitGroup
	for seed := range want {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := &dataset.Vertical{}
			for rep := 0; rep < 5; rep++ {
				m.GenerateInto(stats.NewRNG(uint64(seed)), v)
				if got := verticalFingerprint(v); got != want[seed] {
					t.Errorf("seed %d rep %d: concurrent GenerateInto diverged", seed, rep)
					return
				}
			}
		}(seed)
	}
	wg.Wait()
}

func TestSwapGenerateIntoDegenerate(t *testing.T) {
	v := &dataset.Vertical{}
	// Single occurrence: the chain can never move and must consume no RNG.
	m := &SwapModel{Base: dataset.MustNew(1, [][]uint32{{0}})}
	r := stats.NewRNG(1)
	m.GenerateInto(r, v)
	if v.NumTransactions != 1 || len(v.Tids) != 1 || len(v.Tids[0]) != 1 {
		t.Fatal("degenerate swap broke dataset")
	}
	if got, want := r.Uint64(), stats.NewRNG(1).Uint64(); got != want {
		t.Fatal("degenerate chain consumed RNG values")
	}
	// Empty dataset.
	m = &SwapModel{Base: dataset.MustNew(0, nil)}
	m.GenerateInto(stats.NewRNG(2), v)
	if v.NumTransactions != 0 || len(v.Tids) != 0 {
		t.Fatal("empty swap broke dataset")
	}
}
