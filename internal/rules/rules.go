// Package rules derives association rules from frequent itemsets and
// attaches exact significance measures. Frequent itemset mining exists to
// serve rule mining (the paper's opening motivation); this package closes
// the loop: classical confidence/lift generation in the style of Agrawal et
// al., plus the statistically sound layer — an exact Binomial p-value per
// rule (the null: consequent independent of antecedent) and
// Benjamini-Yekutieli selection with bounded FDR, following the program of
// the paper's Section 1.4 references [13, 17].
package rules

import (
	"fmt"
	"sort"

	"sigfim/internal/dataset"
	"sigfim/internal/mht"
	"sigfim/internal/mining"
	"sigfim/internal/stats"
)

// Rule is an association rule Antecedent => Consequent.
type Rule struct {
	Antecedent mining.Itemset
	Consequent mining.Itemset
	// Support is the number of transactions containing Antecedent ∪
	// Consequent.
	Support int
	// AntecedentSupport is the number of transactions containing the
	// antecedent alone.
	AntecedentSupport int
	// Confidence is Support / AntecedentSupport.
	Confidence float64
	// Lift is Confidence divided by the consequent's overall frequency;
	// values above 1 indicate positive association.
	Lift float64
	// PValue is Pr(Bin(AntecedentSupport, f_C) >= Support): the probability
	// of observing this many joint occurrences if the consequent were
	// independent of the antecedent, with f_C the consequent's observed
	// frequency.
	PValue float64
	// FisherP is the one-sided Fisher exact p-value conditioning on both
	// margins (antecedent and consequent supports fixed); the classical
	// 2x2-table alternative to the Binomial model.
	FisherP float64
}

// Options configures rule generation.
type Options struct {
	// MinSupport is the absolute support threshold for the joint itemset.
	MinSupport int
	// MinConfidence filters rules below this confidence (0 keeps all).
	MinConfidence float64
	// MaxLen caps the joint itemset size (0 = 4; rule counts explode
	// combinatorially beyond that).
	MaxLen int
}

// Generate mines frequent itemsets and expands every frequent itemset of
// size >= 2 into candidate rules (each non-empty proper subset as
// antecedent). Rules are returned sorted by ascending p-value.
func Generate(v *dataset.Vertical, opts Options) ([]Rule, error) {
	if opts.MinSupport < 1 {
		return nil, fmt.Errorf("rules: MinSupport must be >= 1, got %d", opts.MinSupport)
	}
	maxLen := opts.MaxLen
	if maxLen == 0 {
		maxLen = 4
	}
	if maxLen < 2 {
		return nil, fmt.Errorf("rules: MaxLen must be >= 2, got %d", maxLen)
	}
	frequent, err := mining.Mine(v, mining.Options{
		MinSupport: opts.MinSupport, MaxLen: maxLen, Algorithm: mining.EclatTids, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	supportOf := make(map[string]int, len(frequent))
	for _, r := range frequent {
		supportOf[r.Items.Key()] = r.Support
	}
	t := v.NumTransactions
	freqs := v.Frequencies()
	consFreq := func(c mining.Itemset) float64 {
		f := 1.0
		for _, it := range c {
			f *= freqs[it]
		}
		return f
	}
	supportLookup := func(items mining.Itemset) int {
		if sup, ok := supportOf[items.Key()]; ok {
			return sup
		}
		return v.Support(items)
	}

	var out []Rule
	for _, r := range frequent {
		if len(r.Items) < 2 {
			continue
		}
		visitProperSubsets(r.Items, func(ant, cons mining.Itemset) {
			antSup := supportLookup(ant)
			conf := float64(r.Support) / float64(antSup)
			if conf < opts.MinConfidence {
				return
			}
			fC := consFreq(cons)
			lift := 0.0
			if fC > 0 {
				lift = conf / fC
			}
			p := stats.Binomial{N: antSup, P: fC}.UpperTail(r.Support)
			consSup := supportLookup(cons)
			out = append(out, Rule{
				Antecedent:        ant.Clone(),
				Consequent:        cons.Clone(),
				Support:           r.Support,
				AntecedentSupport: antSup,
				Confidence:        conf,
				Lift:              lift,
				PValue:            p,
				FisherP:           stats.FisherExactUpper(t, antSup, consSup, r.Support),
			})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PValue != out[j].PValue {
			return out[i].PValue < out[j].PValue
		}
		return out[i].Support > out[j].Support
	})
	return out, nil
}

// visitProperSubsets enumerates every non-empty proper subset of items as an
// antecedent, with the complement as consequent.
func visitProperSubsets(items mining.Itemset, fn func(ant, cons mining.Itemset)) {
	n := len(items)
	// Bitmask enumeration; n is small (<= MaxLen).
	for mask := 1; mask < (1<<uint(n))-1; mask++ {
		var ant, cons mining.Itemset
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				ant = append(ant, items[i])
			} else {
				cons = append(cons, items[i])
			}
		}
		fn(ant, cons)
	}
}

// SelectSignificant applies Benjamini-Yekutieli at level beta over the rule
// p-values, optionally against a larger total hypothesis count mTotal
// (<= 0 uses the number of candidate rules). Returned rules preserve the
// input order restricted to the selected ones; FDR among them is at most
// beta.
func SelectSignificant(rs []Rule, beta float64, mTotal float64) []Rule {
	pvals := make([]float64, len(rs))
	for i, r := range rs {
		pvals[i] = r.PValue
	}
	sort.Float64s(pvals)
	ell := mht.BYPrefix(pvals, beta, mTotal)
	if ell == 0 {
		return nil
	}
	// BY never splits ties, so the rejected rules are exactly those at or
	// below the prefix's last p-value.
	var out []Rule
	for _, r := range rs {
		if r.PValue <= pvals[ell-1] {
			out = append(out, r)
		}
	}
	return out
}
