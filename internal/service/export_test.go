package service

// RetainJobs returns o with the engine keeping n job records instead of
// 1024 (still floored at Workers+QueueCap).
func RetainJobs(o Options, n int) Options {
	o.jobRetention = n
	return o
}
