package stats

// LogKernelOff makes UniformBlock.fill compute its logs with the fastLog
// loop, the path of CPUs without AVX2, until restore is called. It is not
// safe to use while other tests draw blocks.
func LogKernelOff() (restore func()) {
	prev := useLogKernel
	useLogKernel = false
	return func() { useLogKernel = prev }
}

// WalkKernelOff makes UniformBlock.AppendColumns walk every lane in Go, the
// path of CPUs without AVX2, until restore is called. It is not safe to use
// while other tests walk columns.
func WalkKernelOff() (restore func()) {
	prev := useWalkKernel
	useWalkKernel = false
	return func() { useWalkKernel = prev }
}

// GapBelow exports gapBelow, the column walk's one-gap step, to the
// goodness-of-fit tests of the external test package.
func GapBelow(g GeometricGap, u float64, limit int) (int, bool) { return gapBelow(g, u, limit) }

// FitPowerLawSums exports fitPowerLaw, FitPowerLaw with its count of exact
// sums, to the external test package.
func FitPowerLawSums(n int, fmin, fmax, targetSum float64) (TruncatedPowerLaw, int) {
	return fitPowerLaw(n, fmin, fmax, targetSum)
}
