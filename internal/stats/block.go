package stats

import "math/bits"

// blockSize is the number of raw outputs a UniformBlock or IndexBlock draws
// at a time.
const blockSize = 256

// UniformBlock hands out an RNG's Float64Open uniforms together with their
// table logs (fastLog), drawn blockSize at a time: the fill draws the
// uniforms with the xoshiro state in locals, then computes the block's
// logs, so the per-draw work of the gap walk (AppendColumns) is a few
// float operations on a loaded log instead of a generator step and a log
// polynomial on the critical path.
// On amd64 CPUs with AVX2 the logs come from the logBlock kernel, four at
// a time, and elsewhere from a fastLog loop; both give the same bits.
//
// A block reads ahead of its caller. Release rewinds the RNG to just after
// the last uniform handed out, so between Reset and Release the RNG must
// not be used directly, and after Release the RNG stands exactly where the
// same number of Float64Open calls would have left it.
//
// A UniformBlock is ~4 KiB; callers keep it in a local variable, so it
// lives on the stack, and use one from Reset to Release for every walk of
// a replicate.
type UniformBlock struct {
	r     *RNG
	start xoshiro // r's state before the block's first raw draw
	n, i  int     // uniforms in the block, next one to hand out
	u, lg [blockSize]float64
}

// Reset points b at r, with nothing drawn yet.
func (b *UniformBlock) Reset(r *RNG) {
	b.r, b.start, b.n, b.i = r, r.x, 0, 0
}

// fill draws the next blockSize raw outputs of b's RNG with their logs and
// keeps the nonzero ones: the zero rejection of Float64Open, so the block
// holds the uniforms Float64Open would return, in order. A zero (2^-53 per
// draw) is dropped by a compaction pass after the logs, which keeps the
// loops themselves free of a running count.
func (b *UniformBlock) fill() {
	x := b.r.x
	b.start = x
	zero := false
	for k := range b.u {
		var bits uint64
		x, bits = x.next()
		b.u[k] = toFloat64(bits)
		zero = zero || b.u[k] == 0
	}
	b.r.x = x
	if useLogKernel {
		logBlock(&b.lg, &b.u, &logTab)
	} else {
		for k := range b.u {
			b.lg[k] = fastLog(b.u[k])
		}
	}
	b.n, b.i = blockSize, 0
	if zero {
		b.n = 0
		for k := range b.u {
			if b.u[k] > 0 {
				b.u[b.n], b.lg[b.n] = b.u[k], b.lg[k]
				b.n++
			}
		}
	}
}

// Release rewinds b's RNG to just after the last uniform b handed out — by
// restoring the block's start state and replaying that many Float64Open
// calls, which repeats the zero rejection exactly — and detaches b. A
// block handed out whole (i == blockSize: no zero was dropped) needs no
// rewind: the RNG already stands after its last raw draw.
func (b *UniformBlock) Release() {
	if b.i != blockSize {
		b.r.x = b.start
		for k := 0; k < b.i; k++ {
			b.r.Float64Open()
		}
	}
	b.r = nil
}

// IndexBlock hands out an RNG's Intn(n) values for one n, drawn blockSize
// raw outputs at a time the way UniformBlock draws uniforms: the fill keeps
// the xoshiro state in locals and maps each output to [0, n) with Intn's
// multiply-shift, so a draw is one load instead of a generator step behind
// a call. Reset, Release and the read-ahead contract are UniformBlock's:
// between Reset and Release the RNG must not be used directly, and after
// Release it stands exactly where the same number of Intn(n) calls would
// have left it.
//
// An IndexBlock is ~2 KiB; callers keep it in a local variable.
type IndexBlock struct {
	r      *RNG
	start  xoshiro // r's state before the block's first raw draw
	bound  uint64  // n
	thresh uint64  // (-n) % n: Intn rejects an output whose low word is below it
	n, i   int     // indices in the block, next one to hand out
	idx    [blockSize]int
}

// Reset points b at r for draws from [0, n), with nothing drawn yet. It
// panics if n <= 0, as Intn does.
func (b *IndexBlock) Reset(r *RNG, n int) {
	if n <= 0 {
		panic("stats: IndexBlock with non-positive n")
	}
	bound := uint64(n)
	b.r, b.start, b.bound, b.thresh, b.n, b.i = r, r.x, bound, -bound%bound, 0, 0
}

// Next returns the next Intn(n) value.
func (b *IndexBlock) Next() int {
	if b.i == b.n {
		b.fill()
	}
	b.i++
	return b.idx[b.i-1]
}

// fill draws the next blockSize raw outputs of b's RNG and keeps the
// indices of those Intn accepts, in order. A rejection (probability below
// n/2^64 per draw) is dropped by a second pass over the same outputs, which
// keeps the loop itself free of a running count.
func (b *IndexBlock) fill() {
	x := b.r.x
	b.start = x
	rejected := false
	for k := range b.idx {
		var v uint64
		x, v = x.next()
		hi, lo := bits.Mul64(v, b.bound)
		b.idx[k] = int(hi)
		rejected = rejected || lo < b.thresh
	}
	b.r.x = x
	b.n, b.i = blockSize, 0
	if rejected {
		x, b.n = b.start, 0
		for range b.idx {
			var v uint64
			x, v = x.next()
			if hi, lo := bits.Mul64(v, b.bound); lo >= b.thresh {
				b.idx[b.n] = int(hi)
				b.n++
			}
		}
	}
}

// Release rewinds b's RNG to just after the last index b handed out — by
// restoring the block's start state and replaying that many Intn calls,
// which repeats the rejections exactly — and detaches b. A block handed
// out whole (i == blockSize: nothing was rejected) needs no rewind.
func (b *IndexBlock) Release() {
	if b.i != blockSize {
		b.r.x = b.start
		for k := 0; k < b.i; k++ {
			b.r.Intn(int(b.bound))
		}
	}
	b.r = nil
}
