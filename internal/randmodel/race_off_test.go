//go:build !race

package randmodel

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own and so voids allocation counts.
const raceEnabled = false
