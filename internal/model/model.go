// Package model implements the paper's §3.1 analytic model: the
// state-saving vs non-state-saving cost comparison.
package model

// CostModel holds the per-operation instruction costs of §3.1.
//
//   - C1: cost of processing one insertion into working memory with a
//     state-saving (Rete) algorithm (≈ 1800 machine instructions).
//   - C2: cost of processing one deletion (for Rete, C2 = C1).
//   - C3: average cost of the temporary state computed per WM element
//     by a non-state-saving algorithm (≈ 1100 instructions).
type CostModel struct {
	C1, C2, C3 float64
}

// PaperCosts returns the constants measured in the paper.
func PaperCosts() CostModel { return CostModel{C1: 1800, C2: 1800, C3: 1100} }

// StateSavingCost is the per-cycle cost of a state-saving algorithm for
// i insertions and d deletions: C = i*c1 + d*c2.
func (m CostModel) StateSavingCost(i, d float64) float64 {
	return i*m.C1 + d*m.C2
}

// NonStateSavingCost is the per-cycle cost of a non-state-saving
// algorithm over a working memory of stable size s: C = s*c3.
func (m CostModel) NonStateSavingCost(s float64) float64 {
	return s * m.C3
}

// BreakEvenRatio returns the turnover ratio (i+d)/s below which the
// state-saving algorithm is cheaper. With c1 = c2 the inequality
// i*c1 + d*c2 < s*c3 reduces to (i+d)/s < c3/c1 (§3.1: ≈ 0.61).
func (m CostModel) BreakEvenRatio() float64 {
	return m.C3 / m.C1
}

// Advantage returns the cost ratio non-state-saving / state-saving at a
// given turnover ratio r = (i+d)/s. Values above 1 favour state saving;
// at the paper's measured r ≈ 0.005 the advantage is ≈ 122, and a
// non-state-saving algorithm must recover an inefficiency factor of
// that size before breaking even. (The paper quotes "about 20" for a
// turnover of 0.5% against the practical per-cycle fixed costs; the
// pure model gives c3/(r*c1).)
func (m CostModel) Advantage(r float64) float64 {
	if r <= 0 {
		return 0
	}
	return m.C3 / (r * m.C1)
}
