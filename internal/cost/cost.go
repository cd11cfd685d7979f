// Package cost defines the machine-instruction cost model used to turn
// Rete node activations into simulated execution time on the PSM.
//
// The constants are calibrated on the paper and on Gupta's measurements
// cited in §3.1: a working-memory change costs on the order of c1 ≈ 1800
// machine instructions through a serial Rete matcher, and individual
// node activations — the unit of parallel work — run 50-100
// instructions each (§4). The §3.1 constants themselves are
// model.PaperCosts.
package cost

import (
	"repro/internal/obs"
	"repro/internal/rete"
)

// Model assigns instruction costs to node activations.
type Model struct {
	// PerConstTest is the cost of one constant test in the alpha
	// network (a load, a compare, and a branch).
	PerConstTest float64
	// AlphaUpdate is the cost of inserting into or deleting from an
	// alpha memory (hashing plus list update).
	AlphaUpdate float64
	// JoinBase is the fixed cost of a two-input node activation.
	JoinBase float64
	// PerTokenTest is the cost of testing one opposite-memory entry for
	// consistent variable bindings.
	PerTokenTest float64
	// PerPairEmit is the cost of building and forwarding one token.
	PerPairEmit float64
	// HashProbe is the fixed cost of computing a join key and probing
	// the opposite memory's hash bucket (indexed activations only; the
	// bucket's candidates are then charged at PerTokenTest each).
	HashProbe float64
	// TermOp is the cost of a conflict-set insertion or removal.
	TermOp float64
}

// Default returns the paper-calibrated model.
func Default() Model {
	return Model{
		PerConstTest: 4,
		AlphaUpdate:  30,
		JoinBase:     45,
		PerTokenTest: 14,
		PerPairEmit:  35,
		HashProbe:    20,
		TermOp:       60,
	}
}

// Cost returns the instruction cost of one activation event.
func (m Model) Cost(ev rete.ActivationEvent) float64 {
	switch ev.Kind {
	case rete.KindRoot:
		return float64(ev.TestsRun) * m.PerConstTest
	case rete.KindAlpha:
		return m.AlphaUpdate
	case rete.KindJoinLeft, rete.KindJoinRight, rete.KindNegLeft, rete.KindNegRight:
		c := m.JoinBase +
			float64(ev.TokensTested)*m.PerTokenTest +
			float64(ev.PairsEmitted)*m.PerPairEmit
		if ev.Indexed {
			c += m.HashProbe
		}
		return c
	case rete.KindTerm:
		return m.TermOp
	default:
		return m.JoinBase
	}
}

// NodeCost prices a two-input node's accumulated work from its profile
// counters — the sum of Cost over the node's activation events — so a
// live profile ranks nodes by the same model the simulator uses.
func (m Model) NodeCost(e obs.NodeProfileEntry) float64 {
	return float64(e.Activations)*m.JoinBase +
		float64(e.TokensTested)*m.PerTokenTest +
		float64(e.PairsEmitted)*m.PerPairEmit +
		float64(e.IndexedProbes)*m.HashProbe
}
