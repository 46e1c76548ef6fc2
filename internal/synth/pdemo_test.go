package synth_test

import (
	"testing"

	"sigfim"
)

func TestPowerDemoExhibitsRatioAboveOne(t *testing.T) {
	spec, err := sigfim.BenchmarkProfile("PowerDemo")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := spec.Real(3).Significant(2, &sigfim.Config{Delta: 150, Seed: 11, Correction: sigfim.CorrectionBY})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("s*=%d Q=%d lambda=%g |R|=%d r=%g",
		rep.SStar, rep.NumSignificant, rep.Lambda, rep.Baseline.NumSignificant, rep.PowerRatio)
	if rep.Infinite {
		t.Fatal("PowerDemo: Procedure 2 found nothing")
	}
	if r := rep.PowerRatio; r <= 1.5 && rep.Baseline.NumSignificant > 0 {
		t.Errorf("PowerDemo ratio r = %v, want >> 1", r)
	}
}
