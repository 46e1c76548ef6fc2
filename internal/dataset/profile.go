package dataset

// Profile captures everything the paper's methodology reads from a dataset:
// the item universe size n, the transaction count t, and the individual item
// frequencies f_i. The derived values (frequency range, mean transaction
// length) are the columns of the paper's Table 1.
type Profile struct {
	Name  string
	T     int       // number of transactions
	Freqs []float64 // per-item frequency, f_i = n(i)/t
}

// Extract measures a dataset's profile.
func Extract(name string, d *Dataset) Profile {
	return Profile{Name: name, T: d.NumTransactions(), Freqs: d.Frequencies()}
}

// ExtractVertical measures a vertical dataset's profile.
func ExtractVertical(name string, v *Vertical) Profile {
	return Profile{Name: name, T: v.NumTransactions, Freqs: v.Frequencies()}
}

// NumItems returns n.
func (p Profile) NumItems() int { return len(p.Freqs) }

// FreqRange returns the minimum and maximum item frequency, ignoring items
// that never occur (frequency zero), matching how Table 1 reports fmin.
func (p Profile) FreqRange() (fmin, fmax float64) {
	first := true
	for _, f := range p.Freqs {
		if f == 0 {
			continue
		}
		if first {
			fmin, fmax = f, f
			first = false
			continue
		}
		if f < fmin {
			fmin = f
		}
		if f > fmax {
			fmax = f
		}
	}
	return
}

// AvgTransactionLen returns m = sum of frequencies (expected transaction
// length under the independence model, exact mean for a real dataset).
func (p Profile) AvgTransactionLen() float64 {
	s := 0.0
	for _, f := range p.Freqs {
		s += f
	}
	return s
}
