package oracle

import "math"

// RDist is a distribution over per-item frequencies, the R of Theorem 3:
// each item x draws R_x ~ R independently, then joins each transaction with
// probability R_x. The analytic Chen-Stein bounds (MixtureBounds) depend
// on R only through the moments E[R^j], which implementations expose
// exactly.
type RDist interface {
	// Moment returns E[R^j].
	Moment(j int) float64
}

// PointR is the degenerate distribution R = p: every item has the same
// frequency. With p = gamma/n this is exactly the Theorem 2 regime.
type PointR struct{ P float64 }

// Moment returns p^j.
func (d PointR) Moment(j int) float64 { return math.Pow(d.P, float64(j)) }

// UniformR is R ~ Uniform(A, B) with 0 <= A <= B <= 1.
type UniformR struct{ A, B float64 }

// Moment returns E[R^j] = (B^{j+1} - A^{j+1}) / ((j+1)(B-A)).
func (d UniformR) Moment(j int) float64 {
	if d.B == d.A {
		return math.Pow(d.A, float64(j))
	}
	jp := float64(j + 1)
	return (math.Pow(d.B, jp) - math.Pow(d.A, jp)) / (jp * (d.B - d.A))
}

// TwoPointR takes value Hi with probability W and Lo otherwise — the
// simplest heavy-head model: a few popular items, many rare ones.
type TwoPointR struct {
	Lo, Hi float64
	W      float64 // probability of Hi
}

// Moment returns W*Hi^j + (1-W)*Lo^j.
func (d TwoPointR) Moment(j int) float64 {
	return d.W*math.Pow(d.Hi, float64(j)) + (1-d.W)*math.Pow(d.Lo, float64(j))
}

// EmpiricalR resamples frequencies uniformly from an observed frequency
// vector; its moments are the empirical moments.
type EmpiricalR struct{ Freqs []float64 }

// Moment returns the empirical j-th moment.
func (d EmpiricalR) Moment(j int) float64 {
	s := 0.0
	for _, f := range d.Freqs {
		s += math.Pow(f, float64(j))
	}
	return s / float64(len(d.Freqs))
}
