package core

import "sigfim/internal/dataset"

// Procedure1Capped is Procedure1Ex materializing at most maxFamily itemsets
// instead of maxMaterializedFamily.
func Procedure1Capped(v *dataset.Vertical, k, sMin int, beta float64, correction string, maxFamily int) (*Procedure1Result, error) {
	return procedure1(v, k, sMin, beta, correction, nil, maxFamily)
}
