package sigfim_test

import (
	"context"
	"reflect"
	"testing"

	"sigfim"
	"sigfim/internal/trace"
)

// Tracing is pure observation: a recorder riding the context must not change
// a byte of any report. These golden tests pin that contract for both null
// models — and assert the recorder actually collected spans, so the
// comparison can never pass vacuously with tracing silently disabled.

func TestTracingDoesNotChangeSignificantBytes(t *testing.T) {
	d := goldenDataset(t)
	nulls := []struct {
		name string
		cfg  func() *sigfim.Config
	}{
		{"independence", func() *sigfim.Config {
			return &sigfim.Config{Delta: 120, Seed: 9, Correction: sigfim.CorrectionBY}
		}},
		{"swap", func() *sigfim.Config {
			return &sigfim.Config{Delta: 60, Seed: 9, SwapNull: true}
		}},
	}
	for _, null := range nulls {
		t.Run(null.name, func(t *testing.T) {
			plain, err := d.SignificantCtx(context.Background(), 2, null.cfg())
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder("golden-job")
			traced, err := d.SignificantCtx(trace.NewContext(context.Background(), rec), 2, null.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := mustJSON(t, traced), mustJSON(t, plain); !reflect.DeepEqual(got, want) {
				t.Fatalf("tracing changed the report bytes\nplain:  %s\ntraced: %s", want, got)
			}
			tr := rec.Snapshot()
			if len(tr.Spans) == 0 {
				t.Fatal("recorder collected no spans; the non-interference comparison is vacuous")
			}
			names := make(map[string]bool)
			for _, sp := range tr.Spans {
				names[sp.Name] = true
			}
			for _, want := range []string{"dataset.warmup", "montecarlo.mine", "montecarlo.halving"} {
				if !names[want] {
					t.Errorf("trace lacks a %q span; got %v", want, names)
				}
			}
		})
	}
}

func TestTracingDoesNotChangeSMin(t *testing.T) {
	d := goldenDataset(t)
	cfg := func() *sigfim.Config { return &sigfim.Config{Delta: 120, Seed: 9} }
	plain, err := d.FindSMinCtx(context.Background(), 2, cfg())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("golden-smin")
	traced, err := d.FindSMinCtx(trace.NewContext(context.Background(), rec), 2, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Fatalf("tracing changed s_min: %d vs %d", traced, plain)
	}
	if len(rec.Snapshot().Spans) == 0 {
		t.Fatal("recorder collected no spans on the smin path")
	}
}
