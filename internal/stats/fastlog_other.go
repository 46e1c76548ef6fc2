//go:build !amd64

package stats

// useLogKernel is false: logBlock is amd64 assembly, so UniformBlock.fill
// runs its fastLog loop.
var useLogKernel = false

func logBlock(lg, u *[blockSize]float64, tab *[1 << logTabBits]logCell) {
	panic("stats: logBlock has no kernel on this architecture")
}
