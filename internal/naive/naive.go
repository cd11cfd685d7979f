// Package naive implements a non-state-saving matcher: on every cycle
// the complete working memory is matched against all productions from
// scratch. It exists to reproduce the §3.1 state-saving analysis — the
// paper's model predicts a non-state-saving algorithm must recover an
// inefficiency factor of ~20 before breaking even on OPS5-like programs.
package naive

import (
	"repro/internal/obs"
	"repro/internal/ops5"
)

// Matcher rematches everything on each Apply and emits conflict-set
// deltas relative to the previous cycle.
type Matcher struct {
	prods []*ops5.Production
	wm    map[int]*ops5.WME // by time tag
	insts map[string]*ops5.Instantiation
	sink  ops5.MatchSink // receives the conflict-set deltas

	// Stats accumulates work counters.
	Stats Stats
}

// Stats counts the work the naive matcher performs.
type Stats struct {
	Changes int
	// Rematches counts full WM-vs-production rematch passes.
	Rematches int64
	// ElementsMatched is the total WM size summed over rematch passes:
	// the "s" term of the §3.1 cost model (work proportional to stable
	// WM size every cycle).
	ElementsMatched int64
}

// MatchStats reports the matcher's work in the matcher-neutral form;
// its unit of match work is an element matched in a rematch pass, and
// it keeps no conflict-set counters.
func (m *Matcher) MatchStats() obs.MatchStats {
	return obs.MatchStats{Changes: int64(m.Stats.Changes), Comparisons: m.Stats.ElementsMatched}
}

// New builds a naive matcher for the productions that reports its
// conflict-set deltas to sink.
func New(prods []*ops5.Production, sink ops5.MatchSink) (*Matcher, error) {
	for _, p := range prods {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return &Matcher{
		prods: prods,
		wm:    make(map[int]*ops5.WME),
		insts: make(map[string]*ops5.Instantiation),
		sink:  sink,
	}, nil
}

// Apply updates the matcher's WM copy and recomputes every instantiation.
func (m *Matcher) Apply(changes []ops5.Change) {
	for _, ch := range changes {
		switch ch.Kind {
		case ops5.Insert:
			m.wm[ch.WME.TimeTag] = ch.WME
		case ops5.Delete:
			delete(m.wm, ch.WME.TimeTag)
		}
		m.Stats.Changes++
	}
	m.rematch()
}

// rematch recomputes the full conflict set and emits the delta.
func (m *Matcher) rematch() {
	m.Stats.Rematches++
	m.Stats.ElementsMatched += int64(len(m.wm))
	wmes := make([]*ops5.WME, 0, len(m.wm))
	for _, w := range m.wm {
		wmes = append(wmes, w)
	}
	fresh := make(map[string]*ops5.Instantiation)
	for _, p := range m.prods {
		for _, inst := range ops5.SatisfyBruteForce(p, wmes) {
			fresh[inst.Key()] = inst
		}
	}
	for key, inst := range m.insts {
		if _, ok := fresh[key]; !ok {
			delete(m.insts, key)
			m.sink.RemoveMatch(inst.Production, inst.WMEs)
		}
	}
	for key, inst := range fresh {
		if _, ok := m.insts[key]; !ok {
			m.insts[key] = inst
			m.sink.InsertMatch(inst.Production, inst.WMEs)
		}
	}
}
