package rete

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// NodeProf accumulates one two-input node's activation work for live
// hot-node profiling. The parallel runtime (internal/prete) counts it
// per lane and reports the folded totals through Entry.
type NodeProf struct {
	// Activations counts node activations (left and right combined).
	Activations int64
	// TokensTested counts opposite-memory entries examined. The parallel
	// runtime removes what a positive join's delete undoes by walking the
	// tokens its insert built, testing nothing, so there only inserts and
	// not-nodes' right activations count.
	TokensTested int64
	// PairsEmitted counts the matched pairs sent downstream, in either
	// direction.
	PairsEmitted int64
}

// Entry reports the counters as node j's profile entry, with enough
// topology to make the numbers legible. Cost is left to the reader (see
// cost.Model.NodeCost).
func (p NodeProf) Entry(j *JoinNode) obs.NodeProfileEntry {
	return obs.NodeProfileEntry{
		NodeID:       j.ID,
		Label:        j.Label(),
		SharedBy:     j.SharedBy,
		Productions:  j.ProductionNames(),
		Activations:  p.Activations,
		TokensTested: p.TokensTested,
		PairsEmitted: p.PairsEmitted,
	}
}

// maxProfileProds caps the production list attached to a profile entry;
// heavily shared nodes would otherwise dominate the report's size.
const maxProfileProds = 8

// describe names the node's kind and renders its join tests.
func (j *JoinNode) describe() (kind, tests string) {
	kind = "and"
	if j.Kind == JoinNegative {
		kind = "not"
	}
	parts := make([]string, len(j.Tests))
	for i := range j.Tests {
		parts[i] = j.Tests[i].key()
	}
	tests = "(no tests)"
	if len(parts) > 0 {
		tests = strings.Join(parts, " & ")
	}
	return kind, tests
}

// Label renders the node's kind and join tests for diagnostics and
// profiles, e.g. "and#12 c|dest|=|<r> & ..." or "not#7 (no tests)".
func (j *JoinNode) Label() string {
	kind, tests := j.describe()
	return fmt.Sprintf("%s#%d %s", kind, j.ID, tests)
}

// ProductionNames returns the distinct productions reading the node's
// right (alpha) memory, sorted, truncated at maxProfileProds with a
// "+N more" marker.
func (j *JoinNode) ProductionNames() []string {
	seen := make(map[string]bool, len(j.Right.ProdRefs))
	names := make([]string, 0, len(j.Right.ProdRefs))
	for _, ref := range j.Right.ProdRefs {
		if n := ref.Production.Name; !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) > maxProfileProds {
		extra := len(names) - maxProfileProds
		names = append(names[:maxProfileProds:maxProfileProds], fmt.Sprintf("+%d more", extra))
	}
	return names
}
