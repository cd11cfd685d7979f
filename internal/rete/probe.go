package rete

import "repro/internal/ops5"

// MatchAlphas runs the constant-test network for a WME without mutating
// any memory, returning the alpha memories whose tests all pass and the
// number of constant tests evaluated. The statistics tools use this to
// dispatch WM changes.
func (n *Network) MatchAlphas(w *ops5.WME) (mems []*AlphaMem, tests int) {
	if root := n.roots[w.ClassID()]; root != nil {
		mems = root.appendAlphas(nil, w, &tests)
	}
	return mems, tests
}

// AppendAlphas is MatchAlphas appending to dst and not counting tests:
// the parallel runtime's per-change dispatch, which then allocates
// nothing once dst has grown.
func (n *Network) AppendAlphas(dst []*AlphaMem, w *ops5.WME) []*AlphaMem {
	if root := n.roots[w.ClassID()]; root != nil {
		var tests int
		dst = root.appendAlphas(dst, w, &tests)
	}
	return dst
}

// appendAlphas walks the constant-test chain below c for the WME.
func (c *ConstNode) appendAlphas(dst []*AlphaMem, w *ops5.WME, tests *int) []*AlphaMem {
	*tests++
	if !c.Test.Eval(w) {
		return dst
	}
	if c.Mem != nil {
		dst = append(dst, c.Mem)
	}
	for _, ch := range c.Children {
		dst = ch.appendAlphas(dst, w, tests)
	}
	return dst
}

// NodeCounts summarises the compiled network's size, used by README
// examples and the sharing experiments.
type NodeCounts struct {
	ConstNodes int
	AlphaMems  int
	JoinNodes  int
	NegNodes   int
	BetaMems   int
	Terminals  int
	// SharedConstSavings counts constant-test nodes saved by sharing:
	// the sum over nodes of (SharedBy - 1).
	SharedConstSavings int
	// SharedJoinSavings counts two-input nodes saved by sharing.
	SharedJoinSavings int
}

// Counts walks the network and tallies node counts and sharing savings.
func (n *Network) Counts() NodeCounts {
	var c NodeCounts
	seen := make(map[*ConstNode]bool)
	var visit func(node *ConstNode)
	visit = func(node *ConstNode) {
		if seen[node] {
			return
		}
		seen[node] = true
		c.ConstNodes++
		if node.SharedBy > 1 {
			c.SharedConstSavings += node.SharedBy - 1
		}
		for _, ch := range node.Children {
			visit(ch)
		}
	}
	for _, r := range n.roots {
		visit(r)
	}
	c.AlphaMems = len(n.alphas)
	for _, j := range n.joins {
		if j.Kind == JoinNegative {
			c.NegNodes++
		} else {
			c.JoinNodes++
		}
		if j.SharedBy > 1 {
			c.SharedJoinSavings += j.SharedBy - 1
		}
	}
	c.BetaMems = len(n.betas)
	c.Terminals = len(n.terms)
	return c
}

// StateSize returns the amount of stored match state: alpha-memory
// entries plus beta-memory tokens plus not-node left records. This is
// the §3.2 "amount of state" measure; Rete sits between TREAT (alpha
// only) and the full-state scheme (all CE combinations).
func (n *Network) StateSize() int {
	size := 0
	for _, am := range n.alphas {
		size += len(am.Items)
	}
	for _, bm := range n.betas {
		size += len(bm.Tokens)
	}
	for _, j := range n.joins {
		if j.negIndexed {
			size += j.negCount
		} else {
			size += len(j.negRecords)
		}
	}
	// The dummy top's permanent empty token is not match state.
	return size - 1
}
