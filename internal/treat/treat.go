// Package treat implements the TREAT match algorithm (Miranker 1984),
// the low end of the state-saving spectrum discussed in §3.2 of the
// paper: only matches between individual condition elements and working
// memory elements (alpha memories) are stored; tuples matching
// combinations of condition elements are recomputed on every cycle.
// TREAT is the algorithm the DADO machine comparison in §7 uses.
package treat

import (
	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/sym"
)

// ceMem is the alpha memory for one condition element of one production.
//
// When the CE tests attributes for equality against variables bound by
// earlier positive CEs (keyAttrs/keyVars, parallel slices), the memory
// also buckets its WMEs by the hash of those attributes' values — the
// same ops5.HashValue fold the Rete matchers key their join memories by
// — so the per-cycle joins probe one bucket instead of scanning the
// whole memory. The hash is Equal-consistent but not injective; every
// candidate still goes through the full MatchCE check, so a collision
// only widens a bucket.
type ceMem struct {
	ce    *ops5.CondElement
	items map[int]*ops5.WME // by time tag

	keyAttrs []sym.ID
	keyVars  []string
	buckets  map[uint64]map[int]*ops5.WME // nil when the CE has no key
}

// wmeKey hashes a stored WME's key attribute values.
func (mem *ceMem) wmeKey(w *ops5.WME) uint64 {
	h := ops5.HashSeed
	for _, a := range mem.keyAttrs {
		h = ops5.HashValue(h, w.GetID(a))
	}
	return h
}

// bindKey hashes the probe key from accumulated bindings; ok is false
// when a key variable is unbound (probe falls back to the full memory).
func (mem *ceMem) bindKey(bind ops5.Bindings) (uint64, bool) {
	h := ops5.HashSeed
	for _, v := range mem.keyVars {
		val, ok := bind[v]
		if !ok {
			return 0, false
		}
		h = ops5.HashValue(h, val)
	}
	return h, true
}

// candidates returns the subset of items that could extend bind: the
// matching bucket for indexed memories, everything otherwise. A WME
// outside the bucket differs on an equality-tested attribute and
// cannot pass MatchCE.
func (mem *ceMem) candidates(bind ops5.Bindings) map[int]*ops5.WME {
	if mem.buckets == nil {
		return mem.items
	}
	if k, ok := mem.bindKey(bind); ok {
		return mem.buckets[k]
	}
	return mem.items
}

// insert adds a WME to the memory and its bucket.
func (mem *ceMem) insert(w *ops5.WME) {
	mem.items[w.TimeTag] = w
	if mem.buckets != nil {
		k := mem.wmeKey(w)
		b := mem.buckets[k]
		if b == nil {
			b = make(map[int]*ops5.WME)
			mem.buckets[k] = b
		}
		b[w.TimeTag] = w
	}
}

// remove drops a WME from the memory and its bucket.
func (mem *ceMem) remove(w *ops5.WME) {
	delete(mem.items, w.TimeTag)
	if mem.buckets != nil {
		k := mem.wmeKey(w)
		if b := mem.buckets[k]; b != nil {
			delete(b, w.TimeTag)
			if len(b) == 0 {
				delete(mem.buckets, k)
			}
		}
	}
}

// prodState is per-production match state.
type prodState struct {
	prod *ops5.Production
	mems []*ceMem // one per LHS element, in order
}

// Matcher is a TREAT matcher over a fixed production set.
//
// Positive changes are processed with the seeded-join TREAT rule: the
// changed WME is pinned at each condition element it matches and the
// remaining condition elements are joined from their alpha memories.
// Changes relevant to a negated condition element conservatively
// recompute that production's instantiations (a correctness-preserving
// simplification of Miranker's negated-CE bookkeeping).
type Matcher struct {
	prods []*prodState
	sink  ops5.MatchSink // receives the conflict-set deltas

	// insts tracks current instantiations by key, per production, so
	// deletions and negated-CE recomputations can emit exact deltas.
	insts map[*ops5.Production]map[string]*ops5.Instantiation

	// Stats accumulates work counters for the §3 cost comparisons.
	Stats Stats
}

// Stats counts the work TREAT performs.
type Stats struct {
	Changes          int
	AlphaInserts     int64
	AlphaDeletes     int64
	JoinTuplesTested int64
	Recomputes       int64
	ConflictInserts  int64
	ConflictRemoves  int64
}

// MatchStats reports the matcher's work in the matcher-neutral form;
// its unit of match work is a join tuple tested.
func (m *Matcher) MatchStats() obs.MatchStats {
	s := &m.Stats
	return obs.MatchStats{
		Changes:         int64(s.Changes),
		Comparisons:     s.JoinTuplesTested,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
	}
}

// New builds a TREAT matcher for the productions that reports its
// conflict-set deltas to sink.
func New(prods []*ops5.Production, sink ops5.MatchSink) (*Matcher, error) {
	m := &Matcher{sink: sink, insts: make(map[*ops5.Production]map[string]*ops5.Instantiation)}
	for _, p := range prods {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		ps := &prodState{prod: p}
		bound := make(map[string]bool) // vars bound by earlier positive CEs
		for _, ce := range p.LHS {
			mem := &ceMem{ce: ce, items: make(map[int]*ops5.WME)}
			// Attributes equality-tested against variables bound by an
			// earlier positive CE become the memory's hash key; MatchCE
			// requires those attributes Equal to the binding, so the
			// probe key narrows the join without changing its result.
			seen := make(map[string]bool)
			for _, at := range ce.Tests {
				for _, t := range at.Terms {
					if t.Kind == ops5.TermVar && t.Pred == ops5.PredEq && bound[t.Var] && !seen[at.Attr] {
						seen[at.Attr] = true
						mem.keyAttrs = append(mem.keyAttrs, at.AttrID)
						mem.keyVars = append(mem.keyVars, t.Var)
					}
				}
			}
			if len(mem.keyAttrs) > 0 {
				mem.buckets = make(map[uint64]map[int]*ops5.WME)
			}
			ps.mems = append(ps.mems, mem)
			if !ce.Negated {
				for _, at := range ce.Tests {
					for _, t := range at.Terms {
						if t.Kind == ops5.TermVar && t.Pred == ops5.PredEq {
							bound[t.Var] = true
						}
					}
				}
			}
		}
		m.prods = append(m.prods, ps)
		m.insts[p] = make(map[string]*ops5.Instantiation)
	}
	return m, nil
}

// StateSize returns the amount of stored match state: alpha-memory
// entries only — the low end of the §3.2 spectrum.
func (m *Matcher) StateSize() int {
	size := 0
	for _, ps := range m.prods {
		for _, mem := range ps.mems {
			size += len(mem.items)
		}
	}
	return size
}

// Apply processes a batch of WM changes in order.
func (m *Matcher) Apply(changes []ops5.Change) {
	for _, ch := range changes {
		m.applyOne(ch)
		m.Stats.Changes++
	}
}

func (m *Matcher) applyOne(ch ops5.Change) {
	for _, ps := range m.prods {
		touchedNeg := false
		var posHits []int
		for i, mem := range ps.mems {
			if !ops5.AlphaPass(mem.ce, ch.WME) {
				continue
			}
			switch ch.Kind {
			case ops5.Insert:
				mem.insert(ch.WME)
				m.Stats.AlphaInserts++
			case ops5.Delete:
				mem.remove(ch.WME)
				m.Stats.AlphaDeletes++
			}
			if mem.ce.Negated {
				touchedNeg = true
			} else {
				posHits = append(posHits, i)
			}
		}
		switch {
		case touchedNeg:
			// Conservative: recompute this production's instantiations.
			m.recompute(ps)
		case ch.Kind == ops5.Insert:
			for _, i := range posHits {
				m.seedJoin(ps, i, ch.WME)
			}
		case ch.Kind == ops5.Delete && len(posHits) > 0:
			m.removeContaining(ps.prod, ch.WME)
		}
	}
}

// seedJoin computes the new instantiations that include w at positive CE
// position seedIdx and inserts them into the conflict set.
func (m *Matcher) seedJoin(ps *prodState, seedIdx int, w *ops5.WME) {
	wmes := make([]*ops5.WME, len(ps.prod.LHS))
	var rec func(ceIdx int, b ops5.Bindings)
	rec = func(ceIdx int, b ops5.Bindings) {
		if ceIdx == len(ps.prod.LHS) {
			m.insert(ops5.NewInstantiation(ps.prod, wmes))
			return
		}
		ce := ps.prod.LHS[ceIdx]
		mem := ps.mems[ceIdx]
		if ce.Negated {
			for _, x := range mem.candidates(b) {
				m.Stats.JoinTuplesTested++
				if _, ok := ops5.MatchCE(ce, x, b); ok {
					return
				}
			}
			wmes[ceIdx] = nil
			rec(ceIdx+1, b)
			return
		}
		if ceIdx == seedIdx {
			m.Stats.JoinTuplesTested++
			if nb, ok := ops5.MatchCE(ce, w, b); ok {
				wmes[ceIdx] = w
				rec(ceIdx+1, nb)
				wmes[ceIdx] = nil
			}
			return
		}
		for _, x := range mem.candidates(b) {
			// The seed WME may legitimately fill several positive CEs
			// of one instantiation. To emit each instantiation exactly
			// once, the seed position must be the first position that
			// uses w: positions before the seed may not use it,
			// positions after it may.
			if x == w && ceIdx < seedIdx {
				continue
			}
			m.Stats.JoinTuplesTested++
			if nb, ok := ops5.MatchCE(ce, x, b); ok {
				wmes[ceIdx] = x
				rec(ceIdx+1, nb)
				wmes[ceIdx] = nil
			}
		}
	}
	rec(0, ops5.Bindings{})
}

// removeContaining drops every instantiation of p that uses w.
func (m *Matcher) removeContaining(p *ops5.Production, w *ops5.WME) {
	for key, inst := range m.insts[p] {
		for _, x := range inst.WMEs {
			if x == w {
				delete(m.insts[p], key)
				m.Stats.ConflictRemoves++
				m.sink.RemoveMatch(inst.Production, inst.WMEs)
				break
			}
		}
	}
}

// recompute rebuilds a production's instantiation set from its alpha
// memories and emits the difference.
func (m *Matcher) recompute(ps *prodState) {
	m.Stats.Recomputes++
	fresh := make(map[string]*ops5.Instantiation)
	wmes := make([]*ops5.WME, len(ps.prod.LHS))
	var rec func(ceIdx int, b ops5.Bindings)
	rec = func(ceIdx int, b ops5.Bindings) {
		if ceIdx == len(ps.prod.LHS) {
			inst := ops5.NewInstantiation(ps.prod, wmes)
			fresh[inst.Key()] = inst
			return
		}
		ce := ps.prod.LHS[ceIdx]
		mem := ps.mems[ceIdx]
		if ce.Negated {
			for _, x := range mem.candidates(b) {
				m.Stats.JoinTuplesTested++
				if _, ok := ops5.MatchCE(ce, x, b); ok {
					return
				}
			}
			wmes[ceIdx] = nil
			rec(ceIdx+1, b)
			return
		}
		for _, x := range mem.candidates(b) {
			m.Stats.JoinTuplesTested++
			if nb, ok := ops5.MatchCE(ce, x, b); ok {
				wmes[ceIdx] = x
				rec(ceIdx+1, nb)
				wmes[ceIdx] = nil
			}
		}
	}
	rec(0, ops5.Bindings{})

	cur := m.insts[ps.prod]
	for key, inst := range cur {
		if _, ok := fresh[key]; !ok {
			delete(cur, key)
			m.Stats.ConflictRemoves++
			m.sink.RemoveMatch(inst.Production, inst.WMEs)
		}
	}
	for key, inst := range fresh {
		if _, ok := cur[key]; !ok {
			cur[key] = inst
			m.Stats.ConflictInserts++
			m.sink.InsertMatch(inst.Production, inst.WMEs)
		}
	}
}

// insert adds an instantiation if it is not already present.
func (m *Matcher) insert(inst *ops5.Instantiation) {
	cur := m.insts[inst.Production]
	key := inst.Key()
	if _, ok := cur[key]; ok {
		return
	}
	cur[key] = inst
	m.Stats.ConflictInserts++
	m.sink.InsertMatch(inst.Production, inst.WMEs)
}
