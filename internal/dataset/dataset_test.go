package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sigfim/internal/bitset"
	"sigfim/internal/stats"
)

func small() *Dataset {
	// 5 items, 6 transactions.
	return MustNew(5, [][]uint32{
		{0, 1, 2},
		{0, 1},
		{2, 3},
		{0, 1, 2, 3, 4},
		{4},
		{},
	})
}

func TestBasicAccessors(t *testing.T) {
	d := small()
	if d.NumItems() != 5 || d.NumTransactions() != 6 {
		t.Fatalf("dims = %d,%d", d.NumItems(), d.NumTransactions())
	}
	wantSup := []int{3, 3, 3, 2, 2}
	got := d.ItemSupports()
	for i, w := range wantSup {
		if got[i] != w {
			t.Errorf("support[%d] = %d, want %d", i, got[i], w)
		}
	}
	f := d.Frequencies()
	if math.Abs(f[0]-0.5) > 1e-12 {
		t.Errorf("f[0] = %v", f[0])
	}
	if got := d.AvgTransactionLen(); math.Abs(got-13.0/6) > 1e-12 {
		t.Errorf("avg len = %v", got)
	}
	if d.MaxItemSupport() != 3 {
		t.Errorf("max support = %d", d.MaxItemSupport())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(2, [][]uint32{{0, 5}}); err == nil {
		t.Error("out-of-range item accepted")
	}
	if _, err := New(-1, nil); err == nil {
		t.Error("negative item count accepted")
	}
	// Duplicates and unsorted input are normalized.
	d := MustNew(3, [][]uint32{{2, 0, 2, 1, 0}})
	tr := d.Transaction(0)
	if len(tr) != 3 || tr[0] != 0 || tr[1] != 1 || tr[2] != 2 {
		t.Errorf("normalized transaction = %v", tr)
	}
}

func TestSupportBrute(t *testing.T) {
	d := small()
	cases := []struct {
		set  []uint32
		want int
	}{
		{[]uint32{}, 6},
		{[]uint32{0}, 3},
		{[]uint32{0, 1}, 3},
		{[]uint32{1, 0}, 3}, // order-insensitive
		{[]uint32{0, 1, 2}, 2},
		{[]uint32{2, 3}, 2},
		{[]uint32{0, 4}, 1},
		{[]uint32{3, 4}, 1},
		{[]uint32{0, 1, 2, 3, 4}, 1},
	}
	for _, c := range cases {
		if got := d.Support(c.set); got != c.want {
			t.Errorf("Support(%v) = %d, want %d", c.set, got, c.want)
		}
	}
}

func TestVerticalAgreesWithHorizontal(t *testing.T) {
	d := small()
	v := d.Vertical()
	if v.NumItems() != d.NumItems() || v.NumTransactions != d.NumTransactions() {
		t.Fatal("vertical dims mismatch")
	}
	sets := [][]uint32{{}, {0}, {0, 1}, {0, 1, 2}, {2, 3}, {0, 4}, {3, 4}, {0, 1, 2, 3, 4}, {1, 3}}
	for _, s := range sets {
		if hv, vv := d.Support(s), v.Support(s); hv != vv {
			t.Errorf("Support(%v): horizontal %d vs vertical %d", s, hv, vv)
		}
	}
}

func TestVerticalRoundTrip(t *testing.T) {
	d := small()
	rt := d.Vertical().Horizontal()
	if rt.NumItems() != d.NumItems() || rt.NumTransactions() != d.NumTransactions() {
		t.Fatal("round trip dims mismatch")
	}
	for i := 0; i < d.NumTransactions(); i++ {
		a, b := d.Transaction(i), rt.Transaction(i)
		if len(a) != len(b) {
			t.Fatalf("transaction %d length mismatch", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("transaction %d differs", i)
			}
		}
	}
}

func TestVerticalRandomRoundTripProperty(t *testing.T) {
	r := stats.NewRNG(404)
	f := func(seed uint16) bool {
		n := 1 + r.Intn(8)
		tcount := r.Intn(30)
		tx := make([][]uint32, tcount)
		for i := range tx {
			for it := 0; it < n; it++ {
				if r.Bernoulli(0.3) {
					tx[i] = append(tx[i], uint32(it))
				}
			}
		}
		d := MustNew(n, tx)
		rt := d.Vertical().Horizontal()
		for i := range tx {
			a, b := d.Transaction(i), rt.Transaction(i)
			if len(a) != len(b) {
				return false
			}
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewVerticalValidation(t *testing.T) {
	if _, err := NewVertical(3, []bitset.TidList{{0, 2, 1}}); err == nil {
		t.Error("non-increasing tid list accepted")
	}
	if _, err := NewVertical(3, []bitset.TidList{{0, 3}}); err == nil {
		t.Error("tid >= t accepted")
	}
	if _, err := NewVertical(3, []bitset.TidList{{0, 2}, {}}); err != nil {
		t.Errorf("valid vertical rejected: %v", err)
	}
}

func TestTidListOf(t *testing.T) {
	v := small().Vertical()
	got := v.TidListOf([]uint32{0, 1})
	want := bitset.TidList{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("TidListOf = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TidListOf = %v, want %v", got, want)
		}
	}
	if all := v.TidListOf(nil); len(all) != 6 {
		t.Fatalf("empty itemset tidlist = %v", all)
	}
}

func TestFIMIRoundTrip(t *testing.T) {
	d := small()
	var buf bytes.Buffer
	if err := WriteFIMI(&buf, d); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadFIMI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumTransactions() != d.NumTransactions() {
		t.Fatalf("t = %d, want %d", rt.NumTransactions(), d.NumTransactions())
	}
	for i := 0; i < d.NumTransactions(); i++ {
		a, b := d.Transaction(i), rt.Transaction(i)
		if len(a) != len(b) {
			t.Fatalf("transaction %d mismatch: %v vs %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("transaction %d mismatch: %v vs %v", i, a, b)
			}
		}
	}
}

func TestReadFIMIFormats(t *testing.T) {
	in := "1 2 3\n\n10   20\n7\n"
	d, err := ReadFIMI(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTransactions() != 4 {
		t.Fatalf("t = %d", d.NumTransactions())
	}
	if d.NumItems() != 21 {
		t.Fatalf("n = %d", d.NumItems())
	}
	if len(d.Transaction(1)) != 0 {
		t.Fatal("empty line should be empty transaction")
	}
	if _, err := ReadFIMI(strings.NewReader("1 x 2\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestProfile(t *testing.T) {
	d := small()
	p := Extract("small", d)
	if p.NumItems() != 5 || p.T != 6 {
		t.Fatalf("profile dims: %d items, t=%d", p.NumItems(), p.T)
	}
	fmin, fmax := p.FreqRange()
	if math.Abs(fmin-2.0/6) > 1e-12 || math.Abs(fmax-0.5) > 1e-12 {
		t.Errorf("freq range = [%v, %v]", fmin, fmax)
	}
	if got := p.AvgTransactionLen(); math.Abs(got-13.0/6) > 1e-12 {
		t.Errorf("avg len = %v", got)
	}
	pv := ExtractVertical("small", d.Vertical())
	if pv.T != p.T || pv.NumItems() != p.NumItems() {
		t.Error("vertical profile mismatch")
	}
}

func TestProfileIgnoresZeroFreqItems(t *testing.T) {
	d := MustNew(3, [][]uint32{{0}, {0}})
	p := Extract("z", d)
	fmin, fmax := p.FreqRange()
	if fmin != 1 || fmax != 1 {
		t.Errorf("zero-frequency items should be ignored: [%v, %v]", fmin, fmax)
	}
}
