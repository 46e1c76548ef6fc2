package randmodel

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
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
	// oracle, at the default chain length and two others.
	d := dataset.MustNew(12, [][]uint32{
		{0, 1, 2}, {1, 2, 3}, {3, 4, 5}, {0, 5, 6}, {6, 7},
		{2, 7, 8}, {8, 9, 10}, {0, 9, 11}, {4, 10, 11}, {1, 6, 9},
	})
	for _, m := range []*SwapModel{
		{Base: d},
		{Base: d, ProposalsPerOccurrence: 3},
		{Base: d, ProposalsPerOccurrence: 5},
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
						t.Fatalf("seed %d (ppo=%d): column %d differs between %s and the oracle",
							seed, m.ProposalsPerOccurrence, it, name)
					}
				}
			}
		}
	}
}

func TestSwapGenerateIntoPreservesMargins(t *testing.T) {
	d := swapGoldenBase()
	m := &SwapModel{Base: d, ProposalsPerOccurrence: 2}
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

// checkSignatures fails t unless every transaction's signature covers the
// signature bits of the items it currently holds: the superset invariant
// that keeps the signature's "absent" answers exact.
func checkSignatures(t *testing.T, b *swapBase, sc *swapScratch, what string) {
	t.Helper()
	for tid := 0; tid < b.numTx; tid++ {
		for _, it := range sc.occItem[b.txOff[tid]:b.txOff[tid+1]] {
			if sc.sig[tid]&sigBit(it) == 0 {
				t.Fatalf("%s: transaction %d holds item %d but its signature %#x lacks the item's bit", what, tid, it, sc.sig[tid])
			}
		}
	}
}

// TestSwapSignatureCoversItems: on the golden and long-window bases, one
// scratch reused across seeds (as a pooled scratch is) keeps every
// transaction's signature a superset of its items' bits, both right after
// reset and after the chain ran.
func TestSwapSignatureCoversItems(t *testing.T) {
	for _, c := range []struct {
		name string
		base *dataset.Dataset
	}{
		{"golden", swapGoldenBase()},
		{"long", swapLongBase()},
	} {
		m := &SwapModel{Base: c.base, ProposalsPerOccurrence: 4}
		b := m.prepare()
		proposals := m.proposals(len(b.occTid))
		sc := &swapScratch{}
		for seed := uint64(1); seed <= 3; seed++ {
			sc.reset(b)
			checkSignatures(t, b, sc, fmt.Sprintf("%s seed %d after reset", c.name, seed))
			sc.run(b, proposals, stats.NewRNG(seed))
			checkSignatures(t, b, sc, fmt.Sprintf("%s seed %d after the chain", c.name, seed))
		}
	}
}

// TestSwapChainLengthSaturates: a per-occurrence chain length whose
// product with the occurrence count overflows saturates at math.MaxInt
// instead of wrapping (2^62 * 4 wraps to 0, an empty chain), and
// CheckChainLength reports it.
func TestSwapChainLengthSaturates(t *testing.T) {
	d := dataset.MustNew(4, [][]uint32{{0, 1}, {2}, {3}})
	const big = math.MaxInt/2 + 1
	m := &SwapModel{Base: d, ProposalsPerOccurrence: big}
	if got := m.proposals(4); got != math.MaxInt {
		t.Errorf("proposals(4) at %d per occurrence = %d, want math.MaxInt", big, got)
	}
	if err := m.CheckChainLength(); err == nil {
		t.Errorf("CheckChainLength accepted %d proposals per occurrence over 4 occurrences", big)
	}
	for _, ok := range []*SwapModel{{Base: d}, {Base: d, ProposalsPerOccurrence: math.MaxInt / 4}} {
		if err := ok.CheckChainLength(); err != nil {
			t.Errorf("CheckChainLength(ppo=%d): %v", ok.ProposalsPerOccurrence, err)
		}
	}
	for _, c := range []struct{ ppo, occ, want int }{
		{big, 4, math.MaxInt},
		{math.MaxInt, 2, math.MaxInt},
		{math.MaxInt, 1, math.MaxInt},
		{math.MaxInt / 4, 4, math.MaxInt / 4 * 4},
		{8, 0, 0},
		{0, 4, 0},
		{math.MinInt/2 - 1, 4, 0}, // wraps to a positive product
	} {
		if got := chainLength(c.ppo, c.occ); got != c.want {
			t.Errorf("chainLength(%d, %d) = %d, want %d", c.ppo, c.occ, got, c.want)
		}
	}
}

// FuzzSwapChain runs the slot chain against the SwapRandomizer oracle on
// small fuzz-built bases: the materialized Vertical and the RNG's next
// output must match, and the signature invariant must hold after the
// chain. data lists items, a zero byte ending a transaction; numItems
// spans up to 256 items, so bases with more than 64 items share signature
// bits, and the scan of a set-but-absent bit and its heal both run.
func FuzzSwapChain(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(4), []byte{1, 2, 3, 0, 2, 3, 4, 0, 4, 5, 6, 0, 1, 6, 7, 0, 7, 8, 0, 3, 8, 9})
	f.Add(uint64(2), uint8(200), uint8(0), []byte{10, 75, 140, 205, 0, 11, 76, 141, 206, 0, 12, 77, 142, 0, 13, 78, 0, 10, 11, 12, 13})
	f.Add(uint64(3), uint8(1), uint8(3), []byte{1, 0, 1, 0, 1})
	f.Add(uint64(4), uint8(5), uint8(9), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, numItems, ppo uint8, data []byte) {
		if len(data) > 4096 {
			return
		}
		n := int(numItems) + 1
		tx := [][]uint32{nil}
		for _, x := range data {
			if x == 0 {
				tx = append(tx, nil)
				continue
			}
			last := len(tx) - 1
			tx[last] = append(tx[last], uint32(int(x-1)%n))
		}
		m := &SwapModel{Base: dataset.MustNew(n, tx), ProposalsPerOccurrence: int(ppo % 32)}
		b := m.prepare()
		sc := &swapScratch{}
		v := &dataset.Vertical{}
		r, ro := stats.NewRNG(seed), stats.NewRNG(seed)
		sc.reset(b)
		sc.run(b, m.proposals(len(b.occTid)), r)
		checkSignatures(t, b, sc, "after the chain")
		sc.materialize(b, v)
		want := oracleGenerate(m, ro)
		if v.NumTransactions != want.NumTransactions || len(v.Tids) != len(want.Tids) {
			t.Fatalf("shape (%d, %d), oracle (%d, %d)", v.NumTransactions, len(v.Tids), want.NumTransactions, len(want.Tids))
		}
		for it := range want.Tids {
			if !slices.Equal(v.Tids[it], want.Tids[it]) {
				t.Fatalf("column %d: chain %v, oracle %v", it, v.Tids[it], want.Tids[it])
			}
		}
		if r.Uint64() != ro.Uint64() {
			t.Fatal("the chain left the RNG elsewhere than the oracle")
		}
	})
}
