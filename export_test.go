package sigfim

import "time"

// Seams the external tests reach the worker pool's range sizing and
// ejection threshold through.

// PinRangeSize returns o with every remote run split into ranges of n
// replicates instead of autotuned ones.
func PinRangeSize(o WorkerPoolOptions, n int) WorkerPoolOptions {
	o.rangeSize = n
	return o
}

// EjectAfter returns o with a worker ejected after n consecutive hard
// failures instead of defaultEjectAfter.
func EjectAfter(o WorkerPoolOptions, n int) WorkerPoolOptions {
	o.ejectAfter = n
	return o
}

// AimRangesAt returns o with autotuned ranges aimed at target wall time
// instead of defaultRangeWall.
func AimRangesAt(o WorkerPoolOptions, target time.Duration) WorkerPoolOptions {
	o.rangeWall = target
	return o
}

// AutotuneRangeSize is autotuneRangeSize.
func (p *WorkerPool) AutotuneRangeSize(delta int, target time.Duration) int {
	return p.autotuneRangeSize(delta, target)
}
