//go:build !amd64

package stats

// useLogKernel and useWalkKernel are false: logBlock and walkBlock are
// amd64 assembly, so UniformBlock.fill runs its fastLog loop and
// UniformBlock.AppendColumns its Go walk.
var useLogKernel, useWalkKernel = false, false

func logBlock(lg, u *[blockSize]float64, tab *[1 << logTabBits]logCell) {
	panic("stats: logBlock has no kernel on this architecture")
}

func walkBlock(lg *[blockSize]float64, i, n int, dst []uint32, gaps []GeometricGap, ends []int, c, pos, t int) (ni, nc, npos, nlen int) {
	panic("stats: walkBlock has no kernel on this architecture")
}
