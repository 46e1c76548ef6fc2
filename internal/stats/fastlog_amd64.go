package stats

// logBlock sets lg[k] = fastLog(u[k]) for a whole block, four lanes at a
// time with AVX2 (fastlog_amd64.s). It runs fastLog's float operations in
// fastLog's order, so every log has fastLog's bits. Call it only when
// useLogKernel is set.
//
//go:noescape
func logBlock(lg, u *[blockSize]float64, tab *[1 << logTabBits]logCell)

// useLogKernel selects logBlock over the fastLog loop in UniformBlock.fill:
// the CPU has AVX2 and the OS saves its YMM registers. Only tests change it,
// to compare the two paths.
var useLogKernel = hasAVX2()

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
