package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"sigfim/internal/dataset"
	"sigfim/internal/mht"
	"sigfim/internal/mining"
	"sigfim/internal/stats"
)

// The multiple-testing corrections Procedure 1 can flag discoveries with.
// All four share the prefix property: the rejected set is a prefix of the
// p-values in ascending order and ties never split the stopping point, so
// one streaming threshold pass serves every correction.
const (
	// CorrectionBonferroni controls FWER at beta by rejecting p <= beta/m.
	CorrectionBonferroni = "bonferroni"
	// CorrectionHolm is the uniformly-more-powerful step-down FWER control;
	// with m = C(n, k) astronomically larger than the mined family it is
	// numerically indistinguishable from Bonferroni, but never weaker.
	CorrectionHolm = "holm"
	// CorrectionBY is the paper's Theorem 5 default: Benjamini-Yekutieli
	// step-up, FDR <= beta under arbitrary dependence.
	CorrectionBY = "by"
	// CorrectionWestfallYoung calibrates against the resampled min-p null
	// distribution from Algorithm 1's replicates (FWER <= beta, hence also
	// FDR <= beta), adapting to the actual dependence among supports instead
	// of paying the worst-case C(n, k) penalty.
	CorrectionWestfallYoung = "westfall-young"
)

// ParseCorrection normalizes a user-supplied correction name: trimmed and
// lowercased. Unknown names, the blank one included, return an error
// enumerating the valid set; whether a blank name means "no baseline" is
// the caller's decision (sigfim.ParseCorrection makes it).
func ParseCorrection(s string) (string, error) {
	switch c := strings.ToLower(strings.TrimSpace(s)); c {
	case CorrectionBonferroni, CorrectionHolm, CorrectionBY, CorrectionWestfallYoung:
		return c, nil
	default:
		return "", fmt.Errorf("core: unknown correction %q (want %q, %q, %q, or %q)",
			s, CorrectionBonferroni, CorrectionHolm, CorrectionBY, CorrectionWestfallYoung)
	}
}

// maxMaterializedFamily caps how many flagged itemsets Procedure1Ex keeps in
// memory; FamilySize always reports the exact count. The paper's Bms1 k=4
// row has |R| = 219706 and the mined family F_k(s_min) runs to tens of
// millions, so both the testing pass and the collection pass stream.
const maxMaterializedFamily = 200_000

// Procedure1Ex mines F_k(sMin) from the dataset and flags significant
// itemsets under the given multiple-testing correction over m = C(n, k)
// hypotheses. The null hypothesis for itemset X is that its support is a
// draw from Binomial(t, f_X) with f_X the product of its items' observed
// frequencies. CorrectionBY is the paper's Benjamini-Yekutieli step-up test
// (Theorem 5), guaranteeing FDR <= beta.
//
// The computation streams in two passes over the mined family: pass one
// records only the p-values (8 bytes per itemset), determines the rejection
// threshold, and pass two re-mines to materialize the rejected itemsets
// (capped at maxMaterializedFamily; FamilySize is always exact).
//
// The mined p-values are identical for every correction; only the
// rejection rule applied to their order statistics differs. The correction
// name is normalized via ParseCorrection, so a blank one is an error. For
// CorrectionWestfallYoung, minPs must be the replicate min-p null
// distribution (montecarlo.Result.MinPs, collected under
// Config.CollectMinPs); every other correction ignores minPs. Because the
// replicate minima range over the superset family mined at the halving
// floor (<= sMin), the resampled distribution is stochastically smaller
// than the exact one, so the adjusted p-values are conservative, never
// liberal.
func Procedure1Ex(v *dataset.Vertical, k, sMin int, beta float64, correction string, minPs []float64) (*Procedure1Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if sMin < 1 {
		return nil, fmt.Errorf("core: sMin must be >= 1, got %d", sMin)
	}
	if beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("core: beta must be in (0,1), got %v", beta)
	}
	correction, err := ParseCorrection(correction)
	if err != nil {
		return nil, err
	}
	if correction == CorrectionWestfallYoung && len(minPs) == 0 {
		return nil, fmt.Errorf("core: correction %q requires the replicate min-p null distribution (run Algorithm 1 with CollectMinPs)", correction)
	}
	t := v.NumTransactions
	n := v.NumItems()
	freqs := v.Frequencies()

	pvalOf := func(items mining.Itemset, sup int) float64 {
		fX := 1.0
		for _, it := range items {
			fX *= freqs[it]
		}
		return stats.Binomial{N: t, P: fX}.UpperTail(sup)
	}

	// Pass 1: p-values only.
	var pvals []float64
	s := mining.NewScratch()
	mining.VisitKAlgoScratch(v, k, sMin, 1, mining.Auto, s, func(items mining.Itemset, sup int) {
		pvals = append(pvals, pvalOf(items, sup))
	})
	m := math.Exp(stats.LogChoose(n, k))

	res := &Procedure1Result{
		K:          k,
		SMin:       sMin,
		NumMined:   len(pvals),
		M:          m,
		Beta:       beta,
		Correction: correction,
	}
	if len(pvals) == 0 {
		return res, nil
	}

	// Every correction rejects a prefix of the ascending order statistics;
	// ell is the prefix length.
	sort.Float64s(pvals)
	ell := 0
	switch correction {
	case CorrectionBY:
		ell = mht.BYPrefix(pvals, beta, m)
	case CorrectionBonferroni, CorrectionHolm, CorrectionWestfallYoung:
		// Adjusted-p semantics: over sorted input every *Adjust function is
		// monotone with ties mapped to one value, so the rejected set is the
		// prefix with adjusted p <= beta and ties never split it.
		var adj []float64
		switch correction {
		case CorrectionBonferroni:
			adj = mht.BonferroniAdjust(pvals, m)
		case CorrectionHolm:
			adj = mht.HolmAdjust(pvals, m)
		default:
			adj = mht.WestfallYoung(pvals, minPs)
		}
		for ell < len(adj) && adj[ell] <= beta {
			ell++
		}
	}
	if ell == 0 {
		return res, nil
	}
	threshold := pvals[ell-1]
	// Count rejections exactly: every p-value <= the ell-th order statistic
	// is rejected (ties at the threshold are all below the step-up line).
	res.FamilySize = sort.SearchFloat64s(pvals, math.Nextafter(threshold, 2))

	// Pass 2: materialize the rejected itemsets (capped).
	mining.VisitKAlgoScratch(v, k, sMin, 1, mining.Auto, s, func(items mining.Itemset, sup int) {
		if len(res.Family) >= maxMaterializedFamily {
			return
		}
		if p := pvalOf(items, sup); p <= threshold {
			res.Family = append(res.Family, SignificantItemset{
				Items:   items.Clone(),
				Support: sup,
				PValue:  p,
			})
		}
	})
	// A total order (ties in p-value and support broken by the item ids),
	// so the family's order never depends on the miner's emission order.
	slices.SortFunc(res.Family, func(a, b SignificantItemset) int {
		if c := cmp.Compare(a.PValue, b.PValue); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Support, a.Support); c != 0 {
			return c
		}
		return slices.Compare(a.Items, b.Items)
	})
	return res, nil
}
