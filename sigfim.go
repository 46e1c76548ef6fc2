package sigfim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/montecarlo"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
)

// Dataset is a transactional dataset: items are dense non-negative integer
// ids, transactions are item sets. Datasets are immutable once constructed
// and safe for concurrent use: the vertical (item-major) index, the item
// supports, and the content hash are built lazily exactly once behind
// sync.Once guards, so many goroutines may analyze the same Dataset at the
// same time (the basis of the sigfimd service).
type Dataset struct {
	d *dataset.Dataset
	v *dataset.Vertical

	prepOnce sync.Once // guards the lazy vertical index + item supports
	hashOnce sync.Once // guards hash
	hash     string

	// scrIdle holds idle replicate-range scratches for MineReplicateRange,
	// at most maxIdleRangeScratches of them; scrBusy counts those in use.
	scrMu   sync.Mutex
	scrIdle []*montecarlo.RangeScratch
	scrBusy int
}

// FromTransactions builds a Dataset from raw transactions. Item ids may
// appear in any order and may repeat within a transaction; the universe size
// is one past the largest id.
func FromTransactions(tx [][]uint32) (*Dataset, error) {
	maxID := -1
	for _, tr := range tx {
		for _, it := range tr {
			if int(it) > maxID {
				maxID = int(it)
			}
		}
	}
	d, err := dataset.New(maxID+1, tx)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// OpenFIMI reads a dataset in FIMI format (one transaction per line,
// space-separated integer item ids) from a file. Gzip-compressed files are
// detected by their magic header and decompressed transparently.
func OpenFIMI(path string) (*Dataset, error) {
	d, err := dataset.ReadFIMIFile(path)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// ReadFIMI reads a FIMI-format dataset from a stream, transparently
// decompressing gzip input (sniffed via the 2-byte magic header).
func ReadFIMI(r io.Reader) (*Dataset, error) {
	d, err := dataset.ReadFIMI(r)
	if err != nil {
		return nil, err
	}
	return &Dataset{d: d}, nil
}

// WriteFIMI writes the dataset in FIMI format.
func (ds *Dataset) WriteFIMI(w io.Writer) error {
	return dataset.WriteFIMI(w, ds.d)
}

// fromVertical wraps a generated vertical dataset.
func fromVertical(v *dataset.Vertical) *Dataset {
	return &Dataset{d: v.Horizontal(), v: v}
}

// vertical returns the cached item-major index, building it (and the item
// supports it is derived from) exactly once even under concurrent callers.
func (ds *Dataset) vertical() *dataset.Vertical {
	ds.prepOnce.Do(func() {
		ds.d.ItemSupports() // force the lazy support cache inside the guard
		if ds.v == nil {
			ds.v = ds.d.Vertical()
		}
	})
	return ds.v
}

// frequencies returns the per-item frequency vector after forcing the
// one-time index build, so concurrent readers never race on the lazy caches.
func (ds *Dataset) frequencies() []float64 {
	ds.vertical()
	return ds.d.Frequencies()
}

// Hash returns a deterministic hex-encoded SHA-256 content hash of the
// dataset: two datasets have equal hashes iff they have the same item
// universe size and the same sequence of (sorted, deduplicated)
// transactions. The hash is the cache identity of a dataset in the sigfimd
// service — together with a canonicalized analysis configuration it keys the
// result cache, which is sound because the whole pipeline is deterministic
// for a fixed seed. Computed once and cached; safe for concurrent use.
func (ds *Dataset) Hash() string {
	ds.hashOnce.Do(func() {
		h := sha256.New()
		var buf [8]byte
		writeU64 := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		writeU64(uint64(ds.d.NumItems()))
		writeU64(uint64(ds.d.NumTransactions()))
		var items []byte
		for _, tr := range ds.d.Transactions() {
			writeU64(uint64(len(tr)))
			items = items[:0]
			for _, it := range tr {
				items = binary.LittleEndian.AppendUint32(items, it)
			}
			h.Write(items)
		}
		ds.hash = hex.EncodeToString(h.Sum(nil))
	})
	return ds.hash
}

// NumItems returns the item universe size n.
func (ds *Dataset) NumItems() int { return ds.d.NumItems() }

// NumTransactions returns the transaction count t.
func (ds *Dataset) NumTransactions() int { return ds.d.NumTransactions() }

// Transaction returns the i-th transaction (sorted, deduplicated; shared
// slice, do not modify).
func (ds *Dataset) Transaction(i int) []uint32 { return ds.d.Transaction(i) }

// Support returns the number of transactions containing every item of the
// itemset.
func (ds *Dataset) Support(items []uint32) int { return ds.vertical().Support(items) }

// Profile summarizes the parameters the significance methodology reads from
// a dataset; these are the columns of the paper's Table 1.
type Profile struct {
	// Name labels the dataset in reports.
	Name string
	// NumItems is n.
	NumItems int
	// NumTransactions is t.
	NumTransactions int
	// FMin and FMax bound the nonzero item frequencies.
	FMin, FMax float64
	// AvgTransactionLen is m, the mean transaction length.
	AvgTransactionLen float64
	// Freqs is the full per-item frequency vector f_i = n(i)/t.
	Freqs []float64
}

// Profile measures the dataset.
func (ds *Dataset) Profile(name string) Profile {
	ds.vertical() // force the one-time lazy caches for concurrent safety
	p := dataset.Extract(name, ds.d)
	fmin, fmax := p.FreqRange()
	return Profile{
		Name:              name,
		NumItems:          p.NumItems(),
		NumTransactions:   p.T,
		FMin:              fmin,
		FMax:              fmax,
		AvgTransactionLen: p.AvgTransactionLen(),
		Freqs:             p.Freqs,
	}
}

// RandomTwin draws a random dataset from the paper's null model matched to
// this dataset: same transaction count, same item frequencies, items placed
// independently. Comparing a statistic between a dataset and its random
// twins is the heart of the significance methodology.
func (ds *Dataset) RandomTwin(seed uint64) *Dataset {
	m := randmodel.IndependentModel{
		T:     ds.d.NumTransactions(),
		Freqs: ds.frequencies(),
	}
	return fromVertical(m.Generate(stats.NewRNG(seed)))
}

// SwapTwin draws a random dataset that preserves both the item supports and
// the transaction lengths exactly, via swap randomization (Gionis et al.
// 2006) — the alternative null model discussed in the paper.
func (ds *Dataset) SwapTwin(seed uint64) *Dataset {
	out := randmodel.SwapRandomize(ds.d, randmodel.DefaultProposalsPerOccurrence, stats.NewRNG(seed))
	return &Dataset{d: out}
}

// GenerateRandom draws a dataset from the independence null model described
// by the profile. A frequency at or below 0, or NaN, gives an item that
// never occurs; one at or above 1 gives an item in every transaction. A
// negative transaction count gives a dataset with no transactions.
// Transaction ids are uint32, so a profile has at most 2^32 transactions:
// GenerateRandom panics on a larger count, with the error
// randmodel.IndependentModel.Validate returns for it.
func GenerateRandom(p Profile, seed uint64) *Dataset {
	m := randmodel.IndependentModel{T: max(p.NumTransactions, 0), Freqs: p.Freqs}
	if uint64(m.T) > randmodel.MaxTransactions {
		panic(m.Validate())
	}
	return fromVertical(m.Generate(stats.NewRNG(seed)))
}

// Pattern is a mined itemset with its support.
type Pattern struct {
	// Items is the itemset, sorted ascending by item id.
	Items []uint32
	// Support counts the transactions containing every item of Items.
	Support int
}

// Algorithm names accepted by MineOptions.Algorithm and Config.Algorithm.
// Every algorithm mines exactly the same itemsets; the choice affects
// performance only, and only Dataset.Mine acts on it: every statistical
// job mines with AlgoAuto.
const (
	// AlgoAuto mines vertically: fixed-k runs at floors <= 8 take the
	// transaction-subset hash path when enumerating the subsets costs no
	// more than walking the co-occurring pairs, everything else runs Eclat
	// over sorted tid lists.
	AlgoAuto = "auto"
	// AlgoEclat selects vertical depth-first mining over sorted tid lists;
	// for fixed k it takes AlgoAuto's dispatch, low-floor hash path
	// included.
	AlgoEclat = "eclat"
	// AlgoEclatBit forces serial vertical mining over dense bitsets.
	AlgoEclatBit = "eclat-bits"
	// AlgoApriori forces serial level-wise horizontal mining with a
	// candidate prefix trie.
	AlgoApriori = "apriori"
	// AlgoFPGrowth forces serial FP-tree mining.
	AlgoFPGrowth = "fpgrowth"
)

// MineOptions configures plain frequent itemset mining.
type MineOptions struct {
	// K mines itemsets of exactly this size when positive; 0 mines all
	// sizes up to MaxLen.
	K int
	// MinSupport is the absolute support threshold (>= 1).
	MinSupport int
	// MaxLen caps itemset size when K == 0 (0 = unbounded).
	MaxLen int
	// Algorithm is one of the Algo* constants ("" = auto).
	Algorithm string
	// Workers bounds the goroutines of the parallel mining engine that
	// AlgoAuto and AlgoEclat run: 0 uses every CPU, 1 forces serial mining.
	// The other algorithms always mine serially. Results are identical for
	// every worker count.
	Workers int
}

// Mine runs classical frequent itemset mining.
func (ds *Dataset) Mine(opts MineOptions) ([]Pattern, error) {
	algo, err := parseAlgorithm(opts.Algorithm)
	if err != nil {
		return nil, err
	}
	rs, err := mining.Mine(ds.vertical(), mining.Options{
		K:          opts.K,
		MinSupport: opts.MinSupport,
		MaxLen:     opts.MaxLen,
		Algorithm:  algo,
		Workers:    opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	mining.SortResults(rs)
	out := make([]Pattern, len(rs))
	for i, r := range rs {
		out[i] = Pattern{Items: r.Items, Support: r.Support}
	}
	return out, nil
}

// parseAlgorithm maps an Algo* name ("" = auto) to its miner.
func parseAlgorithm(name string) (mining.Algorithm, error) {
	algo, err := mining.ParseAlgorithm(name)
	if err != nil {
		return 0, fmt.Errorf("sigfim: unknown algorithm %q", name)
	}
	return algo, nil
}

// CountK returns Q_{k,s}: the number of k-itemsets with support >= s,
// counted without materializing them. The count runs on every CPU; use
// CountKWorkers to bound the parallelism.
func (ds *Dataset) CountK(k, minSupport int) int64 {
	return ds.CountKWorkers(k, minSupport, 0)
}

// CountKWorkers is CountK with an explicit worker bound (1 = serial).
func (ds *Dataset) CountKWorkers(k, minSupport, workers int) int64 {
	hist := mining.SupportHistogramAlgoScratch(ds.vertical(), k, minSupport, workers, mining.Auto, nil)
	return mining.CumulativeQ(hist)[0]
}

// ClosedItemsets mines all closed itemsets with support >= minSupport.
func (ds *Dataset) ClosedItemsets(minSupport int) []Pattern {
	rs := mining.ClosedAll(ds.vertical(), minSupport)
	out := make([]Pattern, len(rs))
	for i, r := range rs {
		out[i] = Pattern{Items: r.Items, Support: r.Support}
	}
	return out
}

// LargestClosedItemset returns a maximum-cardinality closed itemset with
// support >= minSupport and its support. Reproduces the paper's diagnostic
// for interpreting huge significant families (Section 4.1).
func (ds *Dataset) LargestClosedItemset(minSupport int) (Pattern, bool) {
	items, sup := mining.MaxClosedCardinality(ds.vertical(), minSupport)
	if len(items) == 0 {
		return Pattern{}, false
	}
	return Pattern{Items: items, Support: sup}, true
}

// MaximalItemsets mines all maximal frequent itemsets (frequent itemsets
// with no frequent strict superset) at the given support threshold.
func (ds *Dataset) MaximalItemsets(minSupport int) []Pattern {
	rs := mining.MaximalAll(ds.vertical(), minSupport)
	out := make([]Pattern, len(rs))
	for i, r := range rs {
		out[i] = Pattern{Items: r.Items, Support: r.Support}
	}
	return out
}

// TopKItemsets returns the K size-k itemsets with the largest supports,
// descending.
func (ds *Dataset) TopKItemsets(k, K int) []Pattern {
	rs := mining.TopK(ds.vertical(), k, K)
	out := make([]Pattern, len(rs))
	for i, r := range rs {
		out[i] = Pattern{Items: r.Items, Support: r.Support}
	}
	return out
}
