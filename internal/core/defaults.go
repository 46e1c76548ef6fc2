package core

// The methodology's defaults, the paper's experimental settings.
// sigfim.ResolveConfig, which the library and the service's cache key
// share, fills them into a public Config.
const (
	DefaultAlpha   = 0.05 // Procedure 2's confidence budget
	DefaultBeta    = 0.05 // FDR budget of both procedures
	DefaultEpsilon = 0.01 // Algorithm 1's Poisson-approximation tolerance
	DefaultDelta   = 1000 // Algorithm 1's Monte Carlo replicates
	// DefaultMaxPatterns caps how many significant itemsets a report
	// materializes.
	DefaultMaxPatterns = 100000
)
