// Package fullstate implements the high end of the state-saving
// spectrum discussed in §3.2 of the paper: Oflazer's scheme, which
// stores the consistent working-memory tuples for *every* combination
// of a production's condition elements (Rete stores only a fixed set of
// prefix combinations; TREAT stores none).
//
// The paper's two criticisms of this scheme are that (1) the state may
// become very large, and (2) much time is spent computing and deleting
// state that never results in a production entering or leaving the
// conflict set. Both are directly measurable here through Stats and
// StateSize, and experiment E13 compares the three algorithms' stored
// state on identical runs.
//
// Negated condition elements are handled as in this repository's TREAT:
// alpha memberships are kept per negated CE and the production's
// conflict-set filter is recomputed when one changes.
package fullstate

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/ops5"
)

// tuple is a partial instantiation: WMEs for the positive CE positions
// of one subset (nil elsewhere).
type tuple struct {
	wmes []*ops5.WME // indexed by positive-CE ordinal, nil if not in subset
}

// key returns the canonical identity of a tuple within its subset.
func (t *tuple) key() string {
	parts := make([]string, 0, len(t.wmes))
	for i, w := range t.wmes {
		if w != nil {
			parts = append(parts, fmt.Sprintf("%d:%d", i, w.TimeTag))
		}
	}
	return strings.Join(parts, ",")
}

// prodState holds the full combination lattice for one production.
type prodState struct {
	prod *ops5.Production
	// posCEs maps positive-CE ordinal -> LHS index.
	posCEs []int
	// negCEs lists the LHS indices of negated CEs.
	negCEs []int
	// subsets maps a bitmask over positive-CE ordinals to that
	// combination's stored tuples, keyed canonically.
	subsets map[uint32]map[string]*tuple
	// negAlpha holds the alpha membership of each negated CE (indexed
	// as in negCEs), keyed by time tag.
	negAlpha []map[int]*ops5.WME
	// inConflict tracks which full tuples currently pass negation and
	// are in the conflict set, keyed by full-tuple key.
	inConflict map[string]*ops5.Instantiation
}

// Matcher is the full-state matcher. It satisfies engine.Matcher.
type Matcher struct {
	prods []*prodState
	sink  ops5.MatchSink // receives the conflict-set deltas

	// Stats accumulates the work and state counters of §3.2.
	Stats Stats
}

// Stats counts the full-state matcher's work.
type Stats struct {
	Changes int
	// TuplesCreated counts tuples ever stored (including ones that are
	// later deleted without contributing a conflict-set change — the
	// §3.2 wasted work).
	TuplesCreated int64
	// TuplesDeleted counts tuples removed by WME deletions.
	TuplesDeleted int64
	// ConsistencyChecks counts binding-consistency evaluations.
	ConsistencyChecks int64
	// ConflictInserts and ConflictRemoves count conflict-set deltas.
	ConflictInserts int64
	ConflictRemoves int64
}

// MatchStats reports the matcher's work in the matcher-neutral form;
// its unit of match work is a binding-consistency check.
func (m *Matcher) MatchStats() obs.MatchStats {
	s := &m.Stats
	return obs.MatchStats{
		Changes:         int64(s.Changes),
		Comparisons:     s.ConsistencyChecks,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
	}
}

// New builds a full-state matcher that reports its conflict-set deltas
// to sink. Productions with more than 16 positive condition elements
// are rejected (2^k subsets are stored).
func New(prods []*ops5.Production, sink ops5.MatchSink) (*Matcher, error) {
	m := &Matcher{sink: sink}
	for _, p := range prods {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		ps := &prodState{
			prod:       p,
			subsets:    make(map[uint32]map[string]*tuple),
			inConflict: make(map[string]*ops5.Instantiation),
		}
		for i, ce := range p.LHS {
			if ce.Negated {
				ps.negCEs = append(ps.negCEs, i)
				ps.negAlpha = append(ps.negAlpha, make(map[int]*ops5.WME))
			} else {
				ps.posCEs = append(ps.posCEs, i)
			}
		}
		if len(ps.posCEs) > 16 {
			return nil, fmt.Errorf("fullstate: production %s has %d positive CEs; the full-state lattice caps at 16",
				p.Name, len(ps.posCEs))
		}
		m.prods = append(m.prods, ps)
	}
	return m, nil
}

// StateSize returns the number of stored tuples plus negated-CE alpha
// entries — the paper's "amount of state" measure for §3.2.
func (m *Matcher) StateSize() int {
	n := 0
	for _, ps := range m.prods {
		for _, tuples := range ps.subsets {
			n += len(tuples)
		}
		for _, na := range ps.negAlpha {
			n += len(na)
		}
	}
	return n
}

// Apply processes a batch of WM changes in order.
func (m *Matcher) Apply(changes []ops5.Change) {
	for _, ch := range changes {
		for _, ps := range m.prods {
			m.applyOne(ps, ch)
		}
		m.Stats.Changes++
	}
}

func (m *Matcher) applyOne(ps *prodState, ch ops5.Change) {
	// Negated CE alpha maintenance.
	negTouched := false
	for ni, lhsIdx := range ps.negCEs {
		ce := ps.prod.LHS[lhsIdx]
		if !ops5.AlphaPass(ce, ch.WME) {
			continue
		}
		negTouched = true
		if ch.Kind == ops5.Insert {
			ps.negAlpha[ni][ch.WME.TimeTag] = ch.WME
		} else {
			delete(ps.negAlpha[ni], ch.WME.TimeTag)
		}
	}

	// Positive-CE lattice maintenance.
	var hits []int // positive-CE ordinals the WME matches
	for ord, lhsIdx := range ps.posCEs {
		if ops5.AlphaPass(ps.prod.LHS[lhsIdx], ch.WME) {
			hits = append(hits, ord)
		}
	}
	fullTouched := false
	switch {
	case ch.Kind == ops5.Insert && len(hits) > 0:
		fullTouched = m.insertWME(ps, ch.WME, hits)
	case ch.Kind == ops5.Delete && len(hits) > 0:
		fullTouched = m.deleteWME(ps, ch.WME)
	}
	if negTouched || fullTouched {
		m.refreshConflict(ps)
	}
}

// insertWME extends every subset containing a matched position, in
// ascending subset-size order, and reports whether the full combination
// changed.
func (m *Matcher) insertWME(ps *prodState, w *ops5.WME, hits []int) bool {
	k := len(ps.posCEs)
	full := uint32(1)<<k - 1
	// Enumerate subsets in ascending popcount so that extensions build
	// on already-updated smaller combinations.
	masks := make([]uint32, 0, 1<<k)
	for mask := uint32(1); mask <= full; mask++ {
		masks = append(masks, mask)
	}
	sort.Slice(masks, func(i, j int) bool {
		pi, pj := popcount(masks[i]), popcount(masks[j])
		if pi != pj {
			return pi < pj
		}
		return masks[i] < masks[j]
	})
	fullTouched := false
	for _, mask := range masks {
		for _, ord := range hits {
			bit := uint32(1) << ord
			if mask&bit == 0 {
				continue
			}
			rest := mask &^ bit
			if rest == 0 {
				// Singleton subset {ord}.
				if m.storeTuple(ps, mask, singleton(k, ord, w)) && mask == full {
					fullTouched = true
				}
				continue
			}
			for _, base := range ps.subsets[rest] {
				if base.wmes[ord] != nil {
					continue // defensive; rest excludes ord by construction
				}
				cand := make([]*ops5.WME, k)
				copy(cand, base.wmes)
				cand[ord] = w
				if !m.consistent(ps, cand) {
					continue
				}
				if m.storeTuple(ps, mask, &tuple{wmes: cand}) && mask == full {
					fullTouched = true
				}
			}
		}
	}
	return fullTouched
}

// singleton builds a one-position tuple.
func singleton(k, ord int, w *ops5.WME) *tuple {
	wmes := make([]*ops5.WME, k)
	wmes[ord] = w
	return &tuple{wmes: wmes}
}

// storeTuple inserts a tuple into a subset, reporting whether it was new.
func (m *Matcher) storeTuple(ps *prodState, mask uint32, t *tuple) bool {
	tuples := ps.subsets[mask]
	if tuples == nil {
		tuples = make(map[string]*tuple)
		ps.subsets[mask] = tuples
	}
	key := t.key()
	if _, ok := tuples[key]; ok {
		return false
	}
	tuples[key] = t
	m.Stats.TuplesCreated++
	return true
}

// consistent checks binding consistency of the chosen WMEs by walking
// the positive CEs in LHS order with deferred semantics: predicate
// tests whose binder lies outside the subset pass for now and are
// re-evaluated when larger combinations are built. Deferred semantics
// make consistency downward-closed, which the lattice construction
// relies on (every consistent tuple is reachable by extending the
// consistent sub-tuple missing its newest member).
func (m *Matcher) consistent(ps *prodState, wmes []*ops5.WME) bool {
	m.Stats.ConsistencyChecks++
	b := ops5.Bindings{}
	for ord, lhsIdx := range ps.posCEs {
		w := wmes[ord]
		if w == nil {
			continue
		}
		nb, ok := ops5.MatchCEDeferred(ps.prod.LHS[lhsIdx], w, b)
		if !ok {
			return false
		}
		b = nb
	}
	return true
}

// deleteWME removes every tuple containing w and reports whether the
// full combination changed.
func (m *Matcher) deleteWME(ps *prodState, w *ops5.WME) bool {
	k := len(ps.posCEs)
	full := uint32(1)<<k - 1
	fullTouched := false
	for mask, tuples := range ps.subsets {
		for key, t := range tuples {
			for _, x := range t.wmes {
				if x == w {
					delete(tuples, key)
					m.Stats.TuplesDeleted++
					if mask == full {
						fullTouched = true
					}
					break
				}
			}
		}
	}
	return fullTouched
}

// refreshConflict recomputes which full tuples pass the negated CEs and
// emits conflict-set deltas.
func (m *Matcher) refreshConflict(ps *prodState) {
	k := len(ps.posCEs)
	full := uint32(1)<<k - 1
	fresh := make(map[string]*ops5.Instantiation)
	for _, t := range ps.subsets[full] {
		if inst, ok := m.instantiate(ps, t); ok {
			fresh[inst.Key()] = inst
		}
	}
	for key, inst := range ps.inConflict {
		if _, ok := fresh[key]; !ok {
			delete(ps.inConflict, key)
			m.Stats.ConflictRemoves++
			m.sink.RemoveMatch(inst.Production, inst.WMEs)
		}
	}
	for key, inst := range fresh {
		if _, ok := ps.inConflict[key]; !ok {
			ps.inConflict[key] = inst
			m.Stats.ConflictInserts++
			m.sink.InsertMatch(inst.Production, inst.WMEs)
		}
	}
}

// instantiate builds the instantiation for a full tuple, evaluating the
// production's negated CEs at their LHS positions.
func (m *Matcher) instantiate(ps *prodState, t *tuple) (*ops5.Instantiation, bool) {
	wmes := make([]*ops5.WME, len(ps.prod.LHS))
	b := ops5.Bindings{}
	ord := 0
	ni := 0
	for lhsIdx, ce := range ps.prod.LHS {
		if ce.Negated {
			for _, x := range ps.negAlpha[ni] {
				m.Stats.ConsistencyChecks++
				if _, bad := ops5.MatchCE(ce, x, b); bad {
					return nil, false
				}
			}
			ni++
			continue
		}
		w := t.wmes[ord]
		nb, ok := ops5.MatchCE(ce, w, b)
		if !ok {
			return nil, false // cannot happen for consistent tuples
		}
		b = nb
		wmes[lhsIdx] = w
		ord++
	}
	return &ops5.Instantiation{Production: ps.prod, WMEs: wmes}, true
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
