package stats

// blockSize is the number of uniforms a UniformBlock draws at a time.
const blockSize = 256

// UniformBlock hands out an RNG's Float64Open uniforms together with their
// table logs (fastLog), drawn blockSize at a time: the fill keeps the
// xoshiro state in locals and computes every log in the same loop, so the
// per-draw work of the gap walk (GeometricGap.AppendSuccesses) is a few
// float operations on a loaded log instead of a generator step and a log
// polynomial on the critical path.
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
// draw) is dropped by a compaction pass after the loop, which keeps the
// loop itself free of a running count.
func (b *UniformBlock) fill() {
	x := b.r.x
	b.start = x
	zero := false
	for k := range b.u {
		var bits uint64
		x, bits = x.next()
		u := toFloat64(bits)
		b.u[k], b.lg[k] = u, fastLog(u)
		zero = zero || u == 0
	}
	b.r.x = x
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
