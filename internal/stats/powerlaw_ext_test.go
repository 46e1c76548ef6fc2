package stats_test

import (
	"math"
	"testing"

	"sigfim/internal/oracle"
	"sigfim/internal/stats"
	"sigfim/internal/synth"
)

// The certified fit against oracle.FitPowerLaw, the plain bisection it
// skips sums of. They live in the external test package because oracle
// imports stats.

// fitCase is one FitPowerLaw call: n ranks, clamp [fmin, fmax], target sum.
type fitCase struct {
	name                  string
	n                     int
	fmin, fmax, targetSum float64
}

// profileFit returns the FitPowerLaw call synth.Spec.Frequencies makes for
// s: the whole vector, or the tail after a flat head such as PowerDemo's.
func profileFit(s synth.Spec) fitCase {
	if s.HeadCount == 0 {
		return fitCase{s.Name, s.N, s.FMin, s.FMax, s.MeanLen}
	}
	tail := math.Max(s.MeanLen-float64(s.HeadCount)*s.HeadFreq, 0)
	return fitCase{s.Name, s.N - s.HeadCount, s.FMin, s.HeadFreq, tail}
}

// sameFit fails t unless FitPowerLaw returns the oracle's law, exponent
// and frequencies bit for bit, and returns it with the exact sums taken.
func sameFit(t *testing.T, c fitCase) (stats.TruncatedPowerLaw, int) {
	t.Helper()
	want := oracle.FitPowerLaw(c.n, c.fmin, c.fmax, c.targetSum)
	got, sums := stats.FitPowerLawSums(c.n, c.fmin, c.fmax, c.targetSum)
	if math.Float64bits(got.Theta) != math.Float64bits(want.Theta) || got != want {
		t.Fatalf("%s: FitPowerLaw(%d, %v, %v, %v) = %+v, oracle %+v",
			c.name, c.n, c.fmin, c.fmax, c.targetSum, got, want)
	}
	sameBits(t, c.name, got.Frequencies(), want.Frequencies())
	return got, sums
}

// sameBits fails t unless got and want hold the same float64s bit for bit.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frequencies, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: rank %d frequency %v, want %v", name, i+1, got[i], want[i])
		}
	}
}

// TestFitPowerLawMatchesOracle: on every synth profile, PowerDemo's
// head-plateau tail included, the certified fit returns the plain
// bisection's exponent and frequencies bit for bit, in at most 10 exact
// sums where the bisection takes 41, and it is the fit that the profile's
// frequency vector is made of.
func TestFitPowerLawMatchesOracle(t *testing.T) {
	for _, s := range append(synth.Profiles(), synth.PowerDemo()) {
		c := profileFit(s)
		law, sums := sameFit(t, c)
		t.Logf("%s: %d exact sums", c.name, sums)
		if sums > 10 {
			t.Errorf("%s: %d exact sums, want at most 10", c.name, sums)
		}
		sameBits(t, s.Name, s.Frequencies()[s.HeadCount:], law.Frequencies())
	}
}

// TestFitPowerLawEdgesMatchOracle covers the fit's corners: targets
// clamped to n·fmin or n·fmax, a single rank, an exponent that reaches the
// cap of 64, theta = 0.5 exactly (where Pow takes its 1/Sqrt branch), a
// flat clamp range and a zero floor.
func TestFitPowerLawEdgesMatchOracle(t *testing.T) {
	half := stats.TruncatedPowerLaw{N: 300, Theta: 0.5, C: 0.2, Min: 1e-4, Max: 0.2}
	halfSum := 0.0
	for _, f := range half.Frequencies() {
		halfSum += f
	}
	cases := []fitCase{
		{"target below n*fmin", 1000, 1e-3, 0.5, 0.01},
		{"target at n*fmin", 1000, 1e-3, 0.5, 1},
		{"target above n*fmax", 1000, 1e-3, 0.5, 1e6},
		{"target at n*fmax", 1000, 1e-3, 0.5, 500},
		{"one rank, target below", 1, 1e-3, 0.5, 0.1},
		{"one rank, target above", 1, 1e-3, 0.5, 2},
		{"no ranks", 0, 1e-3, 0.5, 1},
		{"theta capped", 2000, 1e-6, 0.9, 0.9 + 1999*1e-6},
		{"sum saturates below the cap", 100, 1e-300, 0.5, 0.5 + 1e-20},
		{"theta 0.5", half.N, half.Min, half.Max, halfSum},
		{"flat clamp", 500, 0.01, 0.01, 3},
		{"zero floor", 5000, 0, 0.3, 2},
		{"zero floor, zero target", 5000, 0, 0.3, 0},
		{"frequencies above one", 400, 2, 50, 900},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { sameFit(t, c) })
	}
	if got := stats.FitPowerLaw(half.N, half.Min, half.Max, halfSum); math.Abs(got.Theta-0.5) > 1e-9 {
		t.Errorf("theta 0.5 case fitted %v", got.Theta)
	}
	if got := stats.FitPowerLaw(2000, 1e-6, 0.9, 0.9+1999*1e-6); got.Theta < 63 {
		t.Errorf("capped case fitted %v, want the cap of 64", got.Theta)
	}
}

// FuzzFitPowerLaw pits the certified fit against the oracle's plain
// bisection on arbitrary clamp ranges and targets: the exponent must agree
// bit for bit, and so must the frequencies.
func FuzzFitPowerLaw(f *testing.F) {
	for _, s := range append(synth.Profiles(), synth.PowerDemo()) {
		if c := profileFit(s); c.n <= 3000 {
			f.Add(c.n, c.fmin, c.fmax, c.targetSum)
		}
	}
	f.Add(300, 1e-4, 0.2, 4.0)
	f.Add(1, 0.0, 1.0, 0.5)
	f.Add(2000, 1e-6, 0.9, 0.9+1999*1e-6)
	f.Fuzz(func(t *testing.T, n int, fmin, fmax, targetSum float64) {
		if n < 0 || n > 3000 || !(fmin >= 0 && fmin <= fmax && fmax > 0) ||
			math.IsInf(fmax, 0) || math.IsNaN(targetSum) || math.IsInf(targetSum, 0) {
			t.Skip()
		}
		sameFit(t, fitCase{"fuzz", n, fmin, fmax, targetSum})
	})
}
