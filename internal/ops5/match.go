package ops5

// Bindings maps variable names to their bound values during a match.
type Bindings map[string]Value

// Clone returns an independent copy of the bindings.
func (b Bindings) Clone() Bindings {
	c := make(Bindings, len(b)+2)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// MatchTerm evaluates one term against an attribute value under the given
// bindings. When the term is an equality variable that is not yet bound,
// it returns the new binding to record (bind != "").
func MatchTerm(t Term, v Value, b Bindings) (ok bool, bindVar string, bindVal Value) {
	switch t.Kind {
	case TermConst:
		return t.Pred.Compare(v, t.Val), "", Value{}
	case TermDisj:
		for _, d := range t.Disj {
			if v.Equal(d) {
				return true, "", Value{}
			}
		}
		return false, "", Value{}
	case TermVar:
		bound, have := b[t.Var]
		if !have {
			if t.Pred == PredEq {
				// First occurrence binds.
				return true, t.Var, v
			}
			// A predicate test against an unbound variable cannot be
			// evaluated; OPS5 requires the binding occurrence to come
			// first lexically. Treat as failure.
			return false, "", Value{}
		}
		return t.Pred.Compare(v, bound), "", Value{}
	default: // TermAny
		return true, "", Value{}
	}
}

// MatchCE matches a WME against a condition element under existing
// bindings. On success it returns the extended bindings (a fresh map when
// new variables were bound; the original map is never mutated).
func MatchCE(ce *CondElement, w *WME, b Bindings) (Bindings, bool) {
	if !ce.classMatches(w) {
		return nil, false
	}
	cur := b
	owned := false // whether cur is a private copy we may mutate
	for _, at := range ce.Tests {
		v := at.valueIn(w)
		for _, t := range at.Terms {
			ok, bindVar, bindVal := MatchTerm(t, v, cur)
			if !ok {
				return nil, false
			}
			if bindVar != "" {
				if !owned {
					cur = cur.Clone()
					owned = true
				}
				cur[bindVar] = bindVal
			}
		}
	}
	if !owned && cur == nil {
		cur = Bindings{}
	}
	return cur, true
}

// MatchCEDeferred matches a WME against a condition element like
// MatchCE, except that predicate tests on variables not bound in b (and
// not bound earlier within this CE) are deferred — they pass without
// binding. This is the consistency test for *partial* combinations of
// condition elements (the full-state matcher's subset lattice): within
// a subset, a test whose variable binder lies outside the subset cannot
// be evaluated yet. For complete tuples every binder is present, so the
// deferred and strict semantics coincide.
func MatchCEDeferred(ce *CondElement, w *WME, b Bindings) (Bindings, bool) {
	if !ce.classMatches(w) {
		return nil, false
	}
	cur := b
	owned := false
	for _, at := range ce.Tests {
		v := at.valueIn(w)
		for _, t := range at.Terms {
			if t.Kind == TermVar {
				if _, have := cur[t.Var]; !have && t.Pred != PredEq {
					continue // deferred: binder outside this subset
				}
			}
			ok, bindVar, bindVal := MatchTerm(t, v, cur)
			if !ok {
				return nil, false
			}
			if bindVar != "" {
				if !owned {
					cur = cur.Clone()
					owned = true
				}
				cur[bindVar] = bindVal
			}
		}
	}
	if !owned && cur == nil {
		cur = Bindings{}
	}
	return cur, true
}

// MatchesAlone reports whether the WME passes the CE's class and
// single-WME tests treating every variable as unbound: constants,
// disjunctions, and within-CE variable consistency. Predicate tests on
// unbound variables fail (OPS5 requires the binding occurrence first).
func MatchesAlone(ce *CondElement, w *WME) bool {
	_, ok := MatchCE(ce, w, nil)
	return ok
}

// AlphaPass reports whether the WME passes the CE's alpha-level tests:
// constants, disjunctions, and within-CE variable consistency. Tests
// involving variables bound in *other* condition elements are deferred
// to join time, so a predicate term whose variable is not bound inside
// this CE passes here. AlphaPass therefore accepts a superset of the
// WMEs that can match the CE under some outer bindings; it is the
// alpha-memory membership test used by Rete and TREAT.
func AlphaPass(ce *CondElement, w *WME) bool {
	if !ce.classMatches(w) {
		return false
	}
	local := Bindings{}
	for _, at := range ce.Tests {
		v := at.valueIn(w)
		for _, t := range at.Terms {
			switch t.Kind {
			case TermVar:
				bound, have := local[t.Var]
				switch {
				case !have && t.Pred == PredEq:
					local[t.Var] = v
				case !have:
					// Bound in another CE (or an OPS5 ordering error
					// caught at compile time); defer to join.
				default:
					if !t.Pred.Compare(v, bound) {
						return false
					}
				}
			default:
				ok, _, _ := MatchTerm(t, v, nil)
				if !ok {
					return false
				}
			}
		}
	}
	return true
}

// Instantiation is a satisfied production: the rule plus the WMEs matched
// by its positive condition elements, in LHS order. Negated CEs
// contribute no WME. It carries no bindings: the RHS reads each
// variable straight from the WME its compiled VarRef names.
type Instantiation struct {
	Production *Production
	// WMEs holds one element per LHS condition element; entries for
	// negated CEs are nil.
	WMEs []*WME

	// key caches the canonical identity computed by Key (until the next
	// Reset).
	key string

	// wmeArr is inline storage for WMEs (see NewInstantiation).
	wmeArr [8]*WME
}

// NewInstantiation returns the instantiation of p over a copy of wmes,
// stored inline when the LHS is small, so building one is one
// allocation.
func NewInstantiation(p *Production, wmes []*WME) *Instantiation {
	in := new(Instantiation)
	in.Reset(p, wmes)
	return in
}

// Reset makes in the instantiation of p over a copy of wmes, in in's
// own storage (inline when the LHS is small, else a buffer it keeps for
// the next Reset), and drops the cached Key. conflict.Set.Select refills
// one instantiation this way per selection.
func (in *Instantiation) Reset(p *Production, wmes []*WME) {
	in.Production, in.key = p, ""
	buf := in.WMEs[:0]
	if cap(buf) < len(wmes) {
		if len(wmes) <= len(in.wmeArr) {
			buf = in.wmeArr[:0]
		} else {
			buf = make([]*WME, 0, len(wmes))
		}
	}
	in.WMEs = append(buf, wmes...)
}

// TimeTags returns the time tags of the matched (positive) WMEs in LHS
// order. Used by conflict resolution and for canonical identity.
func (in *Instantiation) TimeTags() []int {
	tags := make([]int, 0, len(in.WMEs))
	for _, w := range in.WMEs {
		if w != nil {
			tags = append(tags, w.TimeTag)
		}
	}
	return tags
}

// Key returns a canonical identity string: production name plus the
// positive-CE time tags in order. Two instantiations with equal keys are
// the same instantiation. The string is built once and cached.
func (in *Instantiation) Key() string {
	if in.key == "" {
		in.key = string(AppendKey(make([]byte, 0, len(in.Production.Name)+8*len(in.WMEs)), in.Production, in.WMEs))
	}
	return in.key
}

// AppendKey appends to buf the Key of the instantiation of p over wmes:
// the production name, then "|tag" per matched WME and "|-" per negated
// condition element.
func AppendKey(buf []byte, p *Production, wmes []*WME) []byte {
	buf = append(buf, p.Name...)
	for _, w := range wmes {
		if w != nil {
			buf = append(buf, '|')
			buf = appendInt(buf, w.TimeTag)
		} else {
			buf = append(buf, '|', '-')
		}
	}
	return buf
}

// MatchSink receives a matcher's conflict-set deltas: a satisfied
// production and the WMEs it matched, one per condition element in LHS
// order (nil for a negated one). wmes is the matcher's scratch and is
// valid only during the call, so a sink that keeps a match copies it.
// conflict.Set is the sink psmd's matchers feed.
type MatchSink interface {
	InsertMatch(p *Production, wmes []*WME)
	RemoveMatch(p *Production, wmes []*WME)
}

// Hooks adapts a pair of per-instantiation callbacks to MatchSink. Each
// delta is built into a fresh Instantiation, and only when its callback
// is set; a removal's is equal to, not the same as, its insert's. The
// two Rete executors (rete.Network, prete.Matcher) embed Hooks, so
// OnInsert and OnRemove read as their fields, and their Sink starts as
// it; the other matchers take their sink at construction.
type Hooks struct {
	OnInsert func(*Instantiation)
	OnRemove func(*Instantiation)
}

// InsertMatch hands OnInsert the instantiation of p over wmes.
func (h *Hooks) InsertMatch(p *Production, wmes []*WME) {
	if h.OnInsert != nil {
		h.OnInsert(NewInstantiation(p, wmes))
	}
}

// RemoveMatch hands OnRemove the instantiation of p over wmes.
func (h *Hooks) RemoveMatch(p *Production, wmes []*WME) {
	if h.OnRemove != nil {
		h.OnRemove(NewInstantiation(p, wmes))
	}
}

// appendInt appends the decimal form of n to buf without allocating.
func appendInt(buf []byte, n int) []byte {
	if n == 0 {
		return append(buf, '0')
	}
	if n < 0 {
		buf = append(buf, '-')
		n = -n
	}
	var tmp [24]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	return append(buf, tmp[i:]...)
}

// SatisfyBruteForce computes every instantiation of production p against
// the given working-memory elements by exhaustive search. It is the
// semantic reference implementation all matchers are tested against, and
// the inner loop of the non-state-saving matcher.
func SatisfyBruteForce(p *Production, wm []*WME) []*Instantiation {
	var out []*Instantiation
	wmes := make([]*WME, len(p.LHS))
	var rec func(ceIdx int, b Bindings)
	rec = func(ceIdx int, b Bindings) {
		if ceIdx == len(p.LHS) {
			out = append(out, &Instantiation{Production: p, WMEs: append([]*WME(nil), wmes...)})
			return
		}
		ce := p.LHS[ceIdx]
		if ce.Negated {
			// Negated CE: succeed only if no WME matches under b.
			for _, w := range wm {
				if _, ok := MatchCE(ce, w, b); ok {
					return
				}
			}
			wmes[ceIdx] = nil
			rec(ceIdx+1, b)
			return
		}
		for _, w := range wm {
			if nb, ok := MatchCE(ce, w, b); ok {
				wmes[ceIdx] = w
				rec(ceIdx+1, nb)
				wmes[ceIdx] = nil
			}
		}
	}
	rec(0, Bindings{})
	return out
}
