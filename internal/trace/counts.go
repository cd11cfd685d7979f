package trace

import "repro/internal/rete"

// Counts derives §4's per-change figures from a serial network's
// activation events: the productions each WM change affects (the
// paper's ~30) and the node activations it causes. An alpha activation
// affects the productions reading its memory; a two-input activation,
// left or right, those reading its right memory (JoinNode.Right). The
// root event, which the network emits last for each change, closes the
// change.
type Counts struct {
	// Changes is the number of WM changes closed.
	Changes int64
	// Activations counts node activations of every kind, roots included.
	Activations int64
	// Affected sums, over changes, the productions each one affected.
	Affected int64

	// refs[id] are the productions an activation of node id affects.
	refs [][]rete.ProdRef
	// prods[id] is one more than the position in Plan.Productions of
	// the one production node id serves; 0 when it serves several, and
	// for the root.
	prods []int
	// seen[p] is Changes+1 once the change in flight has affected
	// Plan.Productions[p], so a new change needs no clearing.
	seen []int64
}

// init maps the plan's nodes to their productions and sizes the
// per-production scratch, once.
func (c *Counts) init(p *rete.Plan) {
	c.refs = make([][]rete.ProdRef, p.IDs)
	c.prods = make([]int, p.IDs)
	c.seen = make([]int64, len(p.Productions))
	// Plan.Terminals holds one terminal per production, in order.
	for i, t := range p.Terminals {
		c.prods[t.ID] = i + 1
	}
	for _, a := range p.Alphas {
		c.refs[a.ID] = a.ProdRefs
		// One production's references to a memory are adjacent.
		if first, last := a.ProdRefs[0].Prod, a.ProdRefs[len(a.ProdRefs)-1].Prod; first == last {
			c.prods[a.ID] = first + 1
		}
	}
	for _, j := range p.Joins {
		c.refs[j.ID] = j.Right.ProdRefs
		if j.SharedBy == 1 {
			c.prods[j.ID] = j.Prod + 1
		}
	}
}

// Count attaches new counts to the network as its Tracer.
func Count(net *rete.Network) *Counts {
	c := new(Counts)
	c.init(net.Plan)
	net.Tracer = c.Observe
	return c
}

// Observe accounts one activation event.
func (c *Counts) Observe(ev rete.ActivationEvent) {
	c.Activations++
	for _, ref := range c.refs[ev.NodeID] {
		if c.seen[ref.Prod] <= c.Changes {
			c.seen[ref.Prod] = c.Changes + 1
			c.Affected++
		}
	}
	if ev.Kind == rete.KindRoot {
		c.Changes++
	}
}

// PerChange returns n over the number of changes closed, n itself
// before the first: the mean per change of Affected or Activations.
func (c *Counts) PerChange(n int64) float64 {
	return float64(n) / float64(max(c.Changes, 1))
}
