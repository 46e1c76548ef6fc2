package mht

import (
	"math"
	"testing"
)

func TestHarmonicExactSmall(t *testing.T) {
	want := 0.0
	for m := 1; m <= 1000; m++ {
		want += 1 / float64(m)
		if got := Harmonic(float64(m)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Harmonic(%d) = %v, want %v", m, got, want)
		}
	}
}

func TestHarmonicAsymptoticContinuity(t *testing.T) {
	// The asymptotic branch must agree with exact summation at the cutoff.
	m := float64(1 << 20)
	exact := Harmonic(m)
	asym := math.Log(m+1) + eulerMascheroni + 1/(2*(m+1)) - 1/(12*(m+1)*(m+1)) - 1/(m+1)
	if math.Abs(exact-asym) > 1e-9 {
		t.Errorf("harmonic branches disagree at cutoff: %v vs %v", exact, asym)
	}
	if Harmonic(0.5) != 0 {
		t.Error("Harmonic below 1 should be 0")
	}
}
