package sigfim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Public-API swap-null tests: the swap null rides the whole Significant
// pipeline deterministically for every worker count, and FindSMin documents
// its independence-only contract with an explicit rejection.

func TestSignificantSwapNullWorkerIdentity(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatalf("open golden fixture: %v", err)
	}
	base := &Config{Delta: 40, Seed: 11, SwapNull: true, SwapProposalsPerOccurrence: 4}
	ref, err := d.Significant(2, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		cfg := *base
		cfg.Workers = workers
		rep, err := d.Significant(2, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Fatalf("swap-null Significant differs between workers=1 and workers=%d", workers)
		}
	}
	// The swap and independence nulls are genuinely different models; on the
	// golden fixture their ladders should not coincide step for step.
	indep, err := d.Significant(2, &Config{Delta: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ref.Steps, indep.Steps) {
		t.Error("swap-null ladder identical to independence ladder; the null-model switch is not taking effect")
	}
}

func TestFindSMinRejectsSwapNull(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.FindSMin(2, &Config{Delta: 20, Seed: 1, SwapNull: true})
	if err == nil {
		t.Fatal("FindSMin accepted SwapNull; want an explicit rejection")
	}
	if !strings.Contains(err.Error(), "independence null") {
		t.Errorf("rejection error %q does not explain the independence-only contract", err)
	}
}

// TestNegativeSwapChainLengthRejected: a negative chain length is an error
// in the library and at the worker entry point, never a silent fallback to
// the default of 8 proposals per occurrence.
func TestNegativeSwapChainLengthRejected(t *testing.T) {
	d, err := OpenFIMI("testdata/golden_input.dat")
	if err != nil {
		t.Fatal(err)
	}
	for _, ppo := range []int{-1, -5} {
		_, err := d.Significant(2, &Config{Delta: 4, Seed: 1, SwapNull: true, SwapProposalsPerOccurrence: ppo})
		if err == nil || !strings.Contains(err.Error(), "swap chain length") {
			t.Errorf("Significant(ppo=%d): err = %v, want a swap chain length error", ppo, err)
		}
		err = d.MineReplicateRange(context.Background(), PartialRequest{
			From: 0, To: 1, K: 2, Floor: 2, Seeds: []uint64{42},
			SwapNull: true, SwapProposalsPerOccurrence: ppo,
		}, new(RangePartial))
		if err == nil || !strings.Contains(err.Error(), "swap chain length") {
			t.Errorf("MineReplicateRange(ppo=%d): err = %v, want a swap chain length error", ppo, err)
		}
	}
}

// TestOverflowingSwapChainLengthRejected: proposals per occurrence times
// the number of occurrences must fit in an int. On a 4-occurrence dataset
// 2^62 proposals per occurrence wraps to a chain of 0 proposals, which
// would make every "random" replicate the observed data itself; the
// library and the worker entry point refuse it instead.
func TestOverflowingSwapChainLengthRejected(t *testing.T) {
	d, err := FromTransactions([][]uint32{{0, 1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	const ppo = math.MaxInt/2 + 1
	_, err = d.Significant(2, &Config{Delta: 4, Seed: 1, SwapNull: true, SwapProposalsPerOccurrence: ppo})
	if err == nil || !strings.Contains(err.Error(), "swap chain length") {
		t.Errorf("Significant(ppo=%d): err = %v, want a swap chain length error", ppo, err)
	}
	err = d.MineReplicateRange(context.Background(), PartialRequest{
		From: 0, To: 1, K: 2, Floor: 1, Seeds: []uint64{42},
		SwapNull: true, SwapProposalsPerOccurrence: ppo,
	}, new(RangePartial))
	if err == nil || !strings.Contains(err.Error(), "swap chain length") {
		t.Errorf("MineReplicateRange(ppo=%d): err = %v, want a swap chain length error", ppo, err)
	}
}
