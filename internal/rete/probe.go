package rete

import "repro/internal/ops5"

// MatchAlphas runs the constant-test network for a WME, returning the
// alpha memories whose tests all pass and the number of constant tests
// evaluated. The statistics tools use this to dispatch WM changes.
func (p *Plan) MatchAlphas(w *ops5.WME) (mems []*AlphaNode, tests int) {
	if root := p.roots[w.ClassID()]; root != nil {
		mems = root.appendAlphas(nil, w, &tests)
	}
	return mems, tests
}

// AppendAlphas is MatchAlphas appending to dst and not counting tests:
// the parallel runtime's per-change dispatch, which then allocates
// nothing once dst has grown.
func (p *Plan) AppendAlphas(dst []*AlphaNode, w *ops5.WME) []*AlphaNode {
	if root := p.roots[w.ClassID()]; root != nil {
		var tests int
		dst = root.appendAlphas(dst, w, &tests)
	}
	return dst
}

// appendAlphas walks the constant-test chain below c for the WME.
func (c *ConstNode) appendAlphas(dst []*AlphaNode, w *ops5.WME, tests *int) []*AlphaNode {
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
func (p *Plan) Counts() NodeCounts {
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
	for _, r := range p.roots {
		visit(r)
	}
	c.AlphaMems = len(p.Alphas)
	for _, j := range p.Joins {
		if j.Kind == JoinNegative {
			c.NegNodes++
		} else {
			c.JoinNodes++
		}
		if j.SharedBy > 1 {
			c.SharedJoinSavings += j.SharedBy - 1
		}
	}
	c.BetaMems = len(p.Betas)
	c.Terminals = len(p.Terminals)
	return c
}

// StateSize returns the amount of stored match state: alpha-memory
// entries plus beta-memory tokens plus not-node left records. This is
// the §3.2 "amount of state" measure; Rete sits between TREAT (alpha
// only) and the full-state scheme (all CE combinations).
func (n *Network) StateSize() int {
	size := 0
	for i := range n.alphas {
		size += len(n.alphas[i].items)
	}
	for i := range n.betas {
		size += len(n.betas[i].items)
	}
	for i := range n.joins {
		size += n.joins[i].negCount
	}
	// The dummy top's permanent empty token is not match state.
	return size - 1
}
