package stats

// logBlock sets lg[k] = fastLog(u[k]) for a whole block, four lanes at a
// time with AVX2 (fastlog_amd64.s). It runs fastLog's float operations in
// fastLog's order, so every log has fastLog's bits. Call it only when
// useLogKernel is set.
//
//go:noescape
func logBlock(lg, u *[blockSize]float64, tab *[1 << logTabBits]logCell)

// walkBlock runs UniformBlock.AppendColumns's walk from lane i of a block
// of n logs, with AVX2 four lanes at a time (walk_amd64.s): column c of
// gaps at position pos (-1 at a column's start), appending to dst in place
// up to its capacity and setting ends[c] at each column's end. It returns
// the lane, column, position and length of dst it stopped at. It stops at
// the first of: the last column done; a column at p outside (0, 1); fewer
// than 4 lanes left in the block or 4 free slots in dst; a lane it cannot
// certify, which it leaves untaken. Call it only when useWalkKernel is set
// and t < 2^31.
//
// Each step certifies four lanes with certify's bracket of the reference
// quotient, shifted by one so the gap plus one is a truncation to int32,
// and places them by an in-register prefix sum; a lane ends its column
// when its position reaches t, which holds exactly when certify's end test
// does. The certificate is as sound as certify's, though not always the
// same: the kernel keeps only lanes its bracket proves, so every position
// it stores is the reference walk's.
//
//go:noescape
func walkBlock(lg *[blockSize]float64, i, n int, dst []uint32, gaps []GeometricGap, ends []int, c, pos, t int) (ni, nc, npos, nlen int)

// useLogKernel selects logBlock over the fastLog loop in UniformBlock.fill,
// and useWalkKernel walkBlock over the Go walk in
// UniformBlock.AppendColumns: the CPU has AVX2 and the OS saves its YMM
// registers. Only tests change them, to compare the paths.
var useLogKernel, useWalkKernel = hasAVX2(), hasAVX2()

func hasAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state across switches.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid and xgetbv are the CPUID and XGETBV (XCR0) instructions
// (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)
