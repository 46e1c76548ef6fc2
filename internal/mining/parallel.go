package mining

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sigfim/internal/dataset"
)

// Parallel mining engine. The Eclat prefix tree decomposes into independent
// subtrees, one per first item (in eclat support order); those subtrees are
// the sharding unit. Workers claim subtrees dynamically off an atomic counter
// (subtree sizes are wildly skewed, so static striping would load-balance
// poorly). One set-up, eclatShards, feeds two sinks: the stream collects each
// subtree into its own buffer and replays the buffers in subtree order —
// exactly the serial DFS emission order, so parallel mining is identical to
// serial mining for every worker count, including output order — and the
// count adds into per-worker histograms merged by integer addition.

// resolveWorkers maps a Workers knob value to a concrete goroutine count:
// values <= 0 select runtime.NumCPU().
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// shardWorkers caps the worker count at the shard count (a worker beyond that
// would never claim work) and, for a parallel run, pre-creates the per-worker
// child scratches — child() mutates the parent and must not be called from
// concurrent shards.
func shardWorkers(s *Scratch, n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers > 1 {
		for w := 0; w < workers; w++ {
			s.child(w)
		}
	}
	return workers
}

// parallelShards runs fn(worker, shard) for every shard in [0, n), spreading
// shards over `workers` goroutines via dynamic claiming. fn must be safe for
// concurrent invocation across distinct worker ids; each worker id runs on a
// single goroutine, so per-worker state needs no locking.
func parallelShards(n, workers int, fn func(worker, shard int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for s := 0; s < n; s++ {
			fn(0, s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= n {
					return
				}
				fn(w, s)
			}
		}(w)
	}
	wg.Wait()
}

// eclatShards is the fixed-k tid-list Eclat search split into its
// first-item subtrees: the frequent items in eclat order, n subtrees (zero
// when fewer than k items are frequent), the worker count capped at n with
// its scratches ready, and the rank index in the parent scratch s, built
// once and shared read-only by every worker's counting kernel.
//
// The struct stays under 128 bytes so the parallel stream's closure captures
// it by value: a larger one moves the receiver to the heap on every call,
// and the serial replicate loop would allocate.
type eclatShards struct {
	v             *dataset.Vertical
	items         []uint32
	k, minSupport int
	n, workers    int
	s             *Scratch
}

func newEclatShards(v *dataset.Vertical, k, minSupport, workers int, s *Scratch) eclatShards {
	s.items = frequentItemsInto(s.items[:0], v, minSupport)
	e := eclatShards{v: v, items: s.items, k: k, minSupport: minSupport, s: s}
	if len(e.items) < k {
		return e
	}
	e.n = len(e.items) - k + 1
	e.workers = shardWorkers(s, e.n, workers)
	s.rankIndex(v, e.items)
	for w := 0; w < e.workers; w++ {
		e.scratch(w).ensureRows(k, len(e.items))
	}
	return e
}

// scratch returns worker w's scratch: the parent itself on a serial run.
func (e eclatShards) scratch(w int) *Scratch {
	if e.workers <= 1 {
		return e.s
	}
	return e.s.child(w)
}

// subtree mines on worker w's scratch every k-itemset whose least-frequent
// member (in eclat order) is items[first]; ascending first is DFS order.
func (e eclatShards) subtree(w, first int, emit func(Itemset, int)) {
	s := e.scratch(w)
	s.prefix = append(s.prefix[:0], e.items[first])
	e.countNode(s, first, e.v.Tids[e.items[first]], emit)
}

// stream emits every itemset in subtree order. A serial run streams
// straight from the kernel and allocates nothing once the Scratch is warm; a
// parallel run collects each subtree into a flat buffer and replays the
// buffers in order.
func (e eclatShards) stream(emit func(Itemset, int)) {
	if e.workers <= 1 {
		for first := 0; first < e.n; first++ {
			e.subtree(0, first, emit)
		}
		return
	}
	bufs := make([]itemsetBuf, e.n)
	parallelShards(e.n, e.workers, func(w, first int) {
		e.subtree(w, first, bufs[first].add)
	})
	for i := range bufs {
		bufs[i].replay(e.k, emit)
		bufs[i] = itemsetBuf{} // release as we replay; emit may retain copies of its own
	}
}

// count adds every itemset into hist by support.
func (e eclatShards) count(hist []int64) {
	hists := workerHistograms(hist, e.workers)
	parallelShards(e.n, e.workers, func(w, first int) {
		h := hists[w]
		e.subtree(w, first, func(_ Itemset, sup int) { h[sup]++ })
	})
	mergeWorkerHistograms(hists)
}

// workerHistograms returns one histogram per worker, hist itself first and
// zeroed copies of its size for the rest. A worker counts into its own
// histogram only: adjacent shared counters would false-share across workers
// in the engine's hottest loop.
func workerHistograms(hist []int64, workers int) [][]int64 {
	hists := [][]int64{hist}
	for w := 1; w < workers; w++ {
		hists = append(hists, make([]int64, len(hist)))
	}
	return hists
}

// mergeWorkerHistograms sums the per-worker histograms into the first one by
// integer addition, so the merged result is identical for any worker count.
func mergeWorkerHistograms(hists [][]int64) {
	for _, h := range hists[1:] {
		for s, c := range h {
			hists[0][s] += c
		}
	}
}

// itemsetBuf is a flat collection of fixed-size itemsets: k items per entry
// in items, the supports parallel in sups. Sharded streams collect each
// shard into one so that collecting costs no per-itemset allocation.
type itemsetBuf struct {
	items []uint32
	sups  []int32
}

func (b *itemsetBuf) add(items Itemset, sup int) {
	b.items = append(b.items, items...)
	b.sups = append(b.sups, int32(sup))
}

// at returns entry i of a buffer of k-itemsets (a view into the buffer).
func (b *itemsetBuf) at(i, k int) Itemset {
	return b.items[i*k : i*k+k]
}

// replay emits the entries in collection order.
func (b *itemsetBuf) replay(k int, emit func(Itemset, int)) {
	for i, sup := range b.sups {
		emit(b.at(i, k), int(sup))
	}
}

// mergeShardResults concatenates per-shard buffers in shard order.
func mergeShardResults(bufs [][]Result) []Result {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return nil
	}
	out := make([]Result, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}
