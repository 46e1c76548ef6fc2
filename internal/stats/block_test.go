package stats

import (
	"math"
	"testing"
)

// prev steps a xoshiro state back one step: the inverse of next's update.
// Tests use it to place a chosen state a given number of draws after a
// block's start.
func (x xoshiro) prev() xoshiro {
	e := rotl(x.s3, 64-45) // s3 ^ s1 of the earlier state
	s0 := x.s0 ^ e
	w := x.s1 ^ s0 // s1 ^ s2
	v := x.s2 ^ s0 // s2 ^ s1<<17
	y := w ^ v     // s1 ^ s1<<17, inverted by the shifted xors below
	s1 := y ^ y<<17 ^ y<<34 ^ y<<51
	return xoshiro{s0, s1, w ^ s1, e ^ s1}
}

// take hands out b's next uniform and log the way the gap walk reads them.
func take(b *UniformBlock) (u, lg float64) {
	if b.i == b.n {
		b.fill()
	}
	b.i++
	return b.u[b.i-1], b.lg[b.i-1]
}

// TestUniformBlockZeroRejection: a block whose draws include a raw output
// of 0 (s1 = 0 makes the next output 0) must drop it as Float64Open does.
// With the zero at the block's first, middle and last draw and in the next
// block, and the caller stopping before, at and after it and at the block
// edges, the block hands out the scalar uniforms with their fastLog values
// and Release leaves the RNG where the scalar draws do.
func TestUniformBlockZeroRejection(t *testing.T) {
	x := NewRNG(1).x
	if y, _ := x.prev().next(); y != x {
		t.Fatal("prev is not the inverse of next")
	}
	for _, at := range []int{0, 1, 100, blockSize - 1, blockSize, blockSize + 3} {
		// z is a state whose next output is 0; x is at draws before it.
		z := NewRNG(uint64(at)).x
		z.s1 = 0
		x := z
		for k := 0; k < at; k++ {
			x = x.prev()
		}
		check := &RNG{x}
		for k := 0; k < at; k++ {
			check.Uint64()
		}
		if check.x != z || check.Uint64() != 0 {
			t.Fatalf("zero at %d: the crafted state does not draw 0 there", at)
		}
		for _, n := range []int{at, at + 1, at + 2, blockSize - 1, blockSize, blockSize + 1, 2*blockSize + 1} {
			r, scalar := &RNG{x}, &RNG{x}
			var b UniformBlock
			b.Reset(r)
			for k := 0; k < n; k++ {
				u, lg := take(&b)
				want := scalar.Float64Open()
				if u != want || math.Float64bits(lg) != math.Float64bits(fastLog(want)) {
					t.Fatalf("zero at %d, draw %d: block gives (%v, %v), scalar (%v, %v)", at, k, u, lg, want, fastLog(want))
				}
			}
			b.Release()
			if r.x != scalar.x {
				t.Fatalf("zero at %d, %d draws: Release leaves the RNG elsewhere than %d Float64Open calls", at, n, n)
			}
		}
	}
}

// TestLogBlockMatchesFastLog: the AVX2 kernel gives fastLog's bits on both
// edges of every table cell in three binades, across the cell ending at 1.0
// and up to 1-2^-53, on the smallest multiples of 2^-53, and on random
// uniforms.
func TestLogBlockMatchesFastLog(t *testing.T) {
	if !useLogKernel {
		t.Skip("no AVX2 log kernel on this CPU")
	}
	var us []float64
	for _, scale := range []float64{1, 0.5, 0x1p-40} {
		for i := 0; i < 1<<logTabBits; i++ {
			lo := math.Float64frombits(logTabOff + uint64(i)<<(52-logTabBits))
			hi := math.Float64frombits(logTabOff + uint64(i+1)<<(52-logTabBits))
			for _, u := range []float64{lo * scale, math.Nextafter(lo, 2) * scale, math.Nextafter(hi, 0) * scale} {
				if u > 0 && u < 1 {
					us = append(us, u)
				}
			}
		}
	}
	for u := 1 - 0x1p-53; u > 1-0x1p-9; u = 1 - 2*(1-u) {
		us = append(us, u, math.Nextafter(u, 0))
	}
	for j := 1; j <= 4096; j++ {
		us = append(us, float64(j)*0x1p-53)
	}
	r := NewRNG(14)
	for len(us) < 64*blockSize {
		us = append(us, r.Float64Open())
	}
	var u, lg [blockSize]float64
	for len(us) > 0 {
		n := copy(u[:], us)
		us = us[n:]
		logBlock(&lg, &u, &logTab)
		for k := 0; k < n; k++ {
			if want := fastLog(u[k]); math.Float64bits(lg[k]) != math.Float64bits(want) {
				t.Fatalf("logBlock(%v [%#x]) = %v [%#x], fastLog %v [%#x]", u[k], math.Float64bits(u[k]),
					lg[k], math.Float64bits(lg[k]), want, math.Float64bits(want))
			}
		}
	}
}

// TestUniformBlockSameWithoutLogKernel: blocks filled with the fastLog loop
// hold the uniforms and log bits the kernel's blocks hold, zero-rejecting
// blocks included, and leave the RNG in the same place.
func TestUniformBlockSameWithoutLogKernel(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		x := NewRNG(seed).x
		if seed%4 == 0 {
			x.s1 = 0 // the block's first draw is 0
		}
		on, off := &RNG{x}, &RNG{x}
		var a, b UniformBlock
		a.Reset(on)
		b.Reset(off)
		for k := 0; k < 3; k++ {
			a.fill()
			restore := LogKernelOff()
			b.fill()
			restore()
			if a.n != b.n || a.u != b.u || on.x != off.x {
				t.Fatalf("seed %d block %d: uniforms or RNG differ without the kernel", seed, k)
			}
			for i := range a.lg {
				if math.Float64bits(a.lg[i]) != math.Float64bits(b.lg[i]) {
					t.Fatalf("seed %d block %d: log %d of %v is %#x with the kernel, %#x without",
						seed, k, i, a.u[i], math.Float64bits(a.lg[i]), math.Float64bits(b.lg[i]))
				}
			}
		}
	}
}

// TestIndexBlockMatchesIntn: an IndexBlock hands out the values of Intn(n)
// in order and Release leaves the RNG where that many Intn calls do. The
// bounds run from 1 to math.MaxInt; at 3<<61 a quarter of the raw outputs
// are rejected, so blocks with rejections, and the second pass that drops
// them, come up in every block. The draw counts stop before, at and after
// block edges.
func TestIndexBlockMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 7, 11020, 1<<40 + 3, 3 << 61, math.MaxInt} {
		for _, draws := range []int{0, 1, blockSize - 1, blockSize, blockSize + 1, 3*blockSize + 5} {
			r, scalar := NewRNG(uint64(n)), NewRNG(uint64(n))
			var b IndexBlock
			b.Reset(r, n)
			for k := 0; k < draws; k++ {
				if got, want := b.Next(), scalar.Intn(n); got != want {
					t.Fatalf("n=%d draw %d: block gives %d, Intn %d", n, k, got, want)
				}
			}
			b.Release()
			if r.x != scalar.x {
				t.Fatalf("n=%d, %d draws: Release leaves the RNG elsewhere than %d Intn calls", n, draws, draws)
			}
		}
	}
}

// referenceColumn is the scalar column walk the block walk replaces: one
// Float64Open uniform per success and one more ending the walk, each gap
// by the reference expression.
func referenceColumn(r *RNG, p float64, t int) []uint32 {
	var col []uint32
	for pos := -1; ; {
		gap, ok := referenceGap(r.Float64Open(), p, t-pos-1)
		if !ok {
			return col
		}
		pos += gap + 1
		col = append(col, uint32(pos))
	}
}

// checkGapColumns walks columns of height t at probability p off one block
// until at least two blocks' worth of uniforms are drawn, comparing each
// with the reference walk, then checks that Release leaves the RNG where
// the reference left its copy.
func checkGapColumns(t *testing.T, seed uint64, p float64, height int) {
	t.Helper()
	gaps := []GeometricGap{NewGeometricGap(p)}
	r, ref := NewRNG(seed), NewRNG(seed)
	var b UniformBlock
	b.Reset(r)
	var col []uint32
	var ends [1]int
	for drawn, c := 0, 0; drawn <= 2*blockSize; c++ {
		col = b.AppendColumns(col[:0], ends[:], height, gaps)
		want := referenceColumn(ref, p, height)
		if len(col) != len(want) {
			t.Fatalf("seed %d p=%v t=%d column %d: %d successes, reference %d", seed, p, height, c, len(col), len(want))
		}
		for k := range col {
			if col[k] != want[k] {
				t.Fatalf("seed %d p=%v t=%d column %d: success %d at %d, reference %d", seed, p, height, c, k, col[k], want[k])
			}
		}
		drawn += len(col) + 1
	}
	b.Release()
	if r.Uint64() != ref.Uint64() {
		t.Fatalf("seed %d p=%v t=%d: the block walk left the stream elsewhere than the reference", seed, p, height)
	}
}

// FuzzGapColumn checks the block walk, columns and stream position,
// against the reference walk for arbitrary seeds, probabilities and
// column heights. The seeds span the null models' frequency range and
// heights from empty to longer than a block.
func FuzzGapColumn(f *testing.F) {
	for i, p := range []float64{1e-19, 1e-6, 1e-3, 0.01, 0.3, 0.9, 1 - 1e-9} {
		for _, height := range []uint16{0, 1, 7, 300, 11020} {
			f.Add(uint64(i)<<16|uint64(height), p, height)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, p float64, height uint16) {
		if !(p > 0 && p < 1) {
			return
		}
		checkGapColumns(t, seed, p, int(height))
	})
}
