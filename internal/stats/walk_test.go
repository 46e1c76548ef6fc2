package stats

import (
	"math"
	"testing"
)

// cloneBlock returns a copy of b that draws from its own copy of b's RNG.
func cloneBlock(b *UniformBlock) *UniformBlock {
	r := *b.r
	c := *b
	c.r = &r
	return &c
}

// referenceColumns is the column walk AppendColumns replaces, one uniform
// at a time off b (take) with each gap by the reference expression: an
// empty column for p <= 0 or NaN, a full one for p >= 1, neither drawing.
func referenceColumns(b *UniformBlock, ps []float64, t int) [][]uint32 {
	cols := make([][]uint32, len(ps))
	for c, p := range ps {
		switch {
		case !(p > 0):
		case p >= 1:
			for tid := 0; tid < t; tid++ {
				cols[c] = append(cols[c], uint32(tid))
			}
		default:
			for pos := -1; ; {
				u, _ := take(b)
				gap, ok := referenceGap(u, p, t-pos-1)
				if !ok {
					break
				}
				pos += gap + 1
				cols[c] = append(cols[c], uint32(pos))
			}
		}
	}
	return cols
}

// checkWalk walks columns of height t at probabilities ps off copies of b,
// with the AVX2 walk kernel (where the CPU has it) and with the Go walk,
// and compares both with referenceColumns on a third copy: every column,
// and the block and RNG position each leaves. dst starts with room for
// four tids, so the walks also grow it.
func checkWalk(t *testing.T, name string, b *UniformBlock, ps []float64, height int) {
	t.Helper()
	gaps := make([]GeometricGap, len(ps))
	for c, p := range ps {
		gaps[c] = NewGeometricGap(p)
	}
	ref := cloneBlock(b)
	want := referenceColumns(ref, ps, height)
	for _, kernel := range []bool{true, false} {
		if kernel && !useWalkKernel {
			continue
		}
		path := "Go walk"
		if kernel {
			path = "walk kernel"
		}
		wb := cloneBlock(b)
		restore := func() {}
		if !kernel {
			restore = WalkKernelOff()
		}
		ends := make([]int, len(ps))
		dst := wb.AppendColumns(make([]uint32, 0, 4), ends, height, gaps)
		restore()
		start := 0
		for c, end := range ends {
			got := dst[start:end]
			start = end
			if len(got) != len(want[c]) {
				t.Fatalf("%s, %s: column %d (p=%v, t=%d) has %d successes, reference %d", name, path, c, ps[c], height, len(got), len(want[c]))
			}
			for k := range got {
				if got[k] != want[c][k] {
					t.Fatalf("%s, %s: column %d (p=%v, t=%d) success %d at %d, reference %d", name, path, c, ps[c], height, k, got[k], want[c][k])
				}
			}
		}
		if start != len(dst) {
			t.Fatalf("%s, %s: the columns end at %d, dst holds %d", name, path, start, len(dst))
		}
		if wb.i != ref.i || wb.n != ref.n || wb.start != ref.start || wb.r.x != ref.r.x {
			t.Fatalf("%s, %s: the walk leaves the block at %d of %d, the reference at %d of %d, or the RNG elsewhere", name, path, wb.i, wb.n, ref.i, ref.n)
		}
	}
}

// TestColumnWalkUncertifiedLanes plants uniforms that certify cannot
// decide — u = q^g, whose reference quotient is within rounding of the
// integer g — in a filled block, where the walk kernel meets them: at each
// lane 0-3 of a step, at the block's first lane, in its last full step, in
// the Go-walked tail of a block whose zero was dropped (n < blockSize) and
// in that block's last full step, and in columns that end inside the
// block. Every column, and the position left, must be the reference's.
func TestColumnWalkUncertifiedLanes(t *testing.T) {
	const p = 0.3
	long := []float64{p}                         // ~1500 successes at t=5000: the block is one column
	short := []float64{p, 0, 1, 0.05, 1e-300, p} // column ends inside the block
	g := NewGeometricGap(p)
	for _, c := range []struct {
		name   string
		n      int
		at     []int
		ps     []float64
		height int
	}{
		{"step lane 0", blockSize, []int{8}, long, 5000},
		{"step lane 1", blockSize, []int{9}, long, 5000},
		{"step lane 2", blockSize, []int{10}, long, 5000},
		{"step lane 3", blockSize, []int{11}, long, 5000},
		{"first lane", blockSize, []int{0}, long, 5000},
		{"last full step", blockSize, []int{252, 255}, long, 5000},
		{"dropped zero, last full step", blockSize - 1, []int{248, 249, 250, 251}, long, 5000},
		{"dropped zero, tail", blockSize - 1, []int{252, 254}, long, 5000},
		{"short columns", blockSize, []int{1, 6, 7, 30, 31, 100}, short, 20},
	} {
		for seed := uint64(0); seed < 4; seed++ {
			var b UniformBlock
			b.Reset(NewRNG(seed))
			b.fill()
			b.n = c.n
			for j, k := range c.at {
				u := math.Exp(float64(2+j) * math.Log1p(-p))
				if _, _, sure := g.certify(fastLog(u), math.MaxInt); sure {
					t.Fatalf("%s: u=%v is certified, the test would not reach the fallback", c.name, u)
				}
				b.u[k], b.lg[k] = u, fastLog(u)
			}
			checkWalk(t, c.name, &b, c.ps, c.height)
		}
	}
}

// FuzzColumnWalk runs the walk kernel, the Go walk and the reference walk
// over arbitrary frequency vectors: zeros, ones, NaN, subnormals, 1-1e-9
// and spread values, on heights from 1 to 2^32, the whole tid range, from
// a block already partly handed out. Frequencies are capped so a vector
// expects at most 2^16 successes. From 2^31 on the kernel must leave the
// walk to Go, whose positions need the full uint32 range.
func FuzzColumnWalk(f *testing.F) {
	const maxHeight = 1 << 32
	for i, h := range []uint64{0, 1, 99, 11019, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 4, 3 << 30, maxHeight - 1} {
		f.Add(uint64(i), h, []byte{0, 1, 2, 3, 4, 5, 6, 7, 200, 9, 77})
		f.Add(uint64(i)<<20|300, h, []byte{255, 6, 6, 1, 128})
	}
	f.Fuzz(func(t *testing.T, seed, height uint64, kinds []byte) {
		if len(kinds) > 64 {
			kinds = kinds[:64]
		}
		n := int(height%maxHeight) + 1
		limit := float64(1<<16) / float64(max(len(kinds), 1)*n)
		ps := make([]float64, len(kinds))
		for c, k := range kinds {
			switch k % 8 {
			case 0:
				ps[c] = 0
			case 1:
				ps[c] = 1
			case 2:
				ps[c] = math.NaN()
			case 3:
				ps[c] = 5e-324
			case 4:
				ps[c] = 0x1p-1030
			case 5:
				ps[c] = 1 - 1e-9
			default:
				ps[c] = float64(k) / 256
			}
			if ps[c] > limit {
				ps[c] = limit
			}
		}
		var b UniformBlock
		b.Reset(NewRNG(seed))
		for skip := seed >> 20 % 300; skip > 0; skip-- {
			take(&b)
		}
		checkWalk(t, "fuzz", &b, ps, n)
	})
}
