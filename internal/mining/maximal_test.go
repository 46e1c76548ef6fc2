package mining

import (
	"testing"

	"sigfim/internal/stats"
)

// bruteMaximal: frequent itemsets with no frequent strict superset.
func bruteMaximal(v interface {
	NumItems() int
}, all []Result) []Result {
	var out []Result
	for i, r := range all {
		maximal := true
		for j, o := range all {
			if i == j {
				continue
			}
			if len(o.Items) > len(r.Items) && r.Items.SubsetOf(o.Items) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, r)
		}
	}
	SortResults(out)
	return out
}

func TestMaximalAgainstBrute(t *testing.T) {
	r := stats.NewRNG(909)
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(r, 8, 30)
		v := d.Vertical()
		for _, minSup := range []int{1, 2, 4} {
			all := mustMine(t, v, Options{MinSupport: minSup})
			want := bruteMaximal(v, all)
			got := MaximalAll(v, minSup)
			if !resultsEqual(got, want) {
				t.Fatalf("trial %d minSup=%d: maximal %d vs brute %d",
					trial, minSup, len(got), len(want))
			}
		}
	}
}

func TestMaximalAreClosedAndFrequent(t *testing.T) {
	r := stats.NewRNG(910)
	d := randomDataset(r, 8, 30)
	v := d.Vertical()
	for _, m := range MaximalAll(v, 2) {
		if m.Support < 2 {
			t.Fatalf("maximal itemset below threshold: %v", m)
		}
		if !IsClosed(v, m.Items) {
			t.Fatalf("maximal itemset not closed: %v", m.Items)
		}
	}
}

func TestTopK(t *testing.T) {
	r := stats.NewRNG(911)
	for trial := 0; trial < 15; trial++ {
		d := randomDataset(r, 8, 40)
		v := d.Vertical()
		all := mustMine(t, v, Options{K: 2, MinSupport: 1})
		SortResults(all)
		for _, K := range []int{1, 3, 10, 1000} {
			got := TopK(v, 2, K)
			wantLen := K
			if wantLen > len(all) {
				wantLen = len(all)
			}
			if len(got) != wantLen {
				t.Fatalf("TopK(%d) returned %d, want %d", K, len(got), wantLen)
			}
			// The returned supports must equal the top supports exactly.
			for i := range got {
				if got[i].Support != all[i].Support {
					t.Fatalf("TopK(%d)[%d] support %d, want %d",
						K, i, got[i].Support, all[i].Support)
				}
			}
		}
	}
}

func TestTopKDegenerate(t *testing.T) {
	r := stats.NewRNG(912)
	d := randomDataset(r, 6, 20)
	v := d.Vertical()
	if got := TopK(v, 2, 0); got != nil {
		t.Error("K=0 should return nil")
	}
	if got := TopK(v, 20, 5); len(got) != 0 {
		t.Errorf("k beyond universe returned %d", len(got))
	}
}
