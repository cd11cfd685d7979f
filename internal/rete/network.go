// Package rete implements the Rete match algorithm of Forgy (1982) as
// described in §2.2 of the paper: a dataflow network compiled from
// production left-hand sides, with constant-test nodes, alpha (wme)
// memories, two-input and-nodes and not-nodes, beta (token) memories and
// terminal nodes. Node sharing between productions, incremental
// add/remove processing, and per-activation tracing hooks are all
// implemented; the trace is the input to the PSM multiprocessor
// simulator (internal/psm), exactly as in §6 of the paper.
//
// The exported node structures carry the mutexes used by the parallel
// runtime in internal/prete; the serial entry points in this package
// never take them.
package rete

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ops5"
	"repro/internal/sym"
)

// constKind discriminates single-WME test forms in the alpha network.
type constKind uint8

const (
	ctAlways  constKind = iota // class root: class test already applied
	ctConst                    // attr pred constant
	ctDisj                     // attr in {constants}
	ctAttrRel                  // attr pred attr2 (intra-element variable test)
)

// ConstTest is one single-WME test performed in the alpha network.
// Attributes are carried as interned symbol IDs (names kept for
// diagnostics), so evaluation never hashes a string: constant-test
// dispatch is integer field lookup plus value compare.
type ConstTest struct {
	Kind    constKind
	Attr    string
	AttrID  sym.ID
	Pred    ops5.Predicate
	Val     ops5.Value
	Disj    []ops5.Value
	Attr2   string
	Attr2ID sym.ID
}

// Eval applies the test to a WME (class already checked by the root).
func (t *ConstTest) Eval(w *ops5.WME) bool {
	switch t.Kind {
	case ctAlways:
		return true
	case ctConst:
		return t.Pred.Compare(w.GetID(t.AttrID), t.Val)
	case ctDisj:
		v := w.GetID(t.AttrID)
		for _, d := range t.Disj {
			if v.Equal(d) {
				return true
			}
		}
		return false
	case ctAttrRel:
		return t.Pred.Compare(w.GetID(t.AttrID), w.GetID(t.Attr2ID))
	default:
		return false
	}
}

// key returns a canonical identity used for node sharing.
func (t *ConstTest) key() string {
	switch t.Kind {
	case ctAlways:
		return "T"
	case ctConst:
		return "c|" + t.Attr + "|" + t.Pred.String() + "|" + t.Val.String()
	case ctDisj:
		parts := make([]string, len(t.Disj))
		for i, v := range t.Disj {
			parts[i] = v.String()
		}
		sort.Strings(parts)
		return "d|" + t.Attr + "|" + strings.Join(parts, ",")
	case ctAttrRel:
		return "r|" + t.Attr + "|" + t.Pred.String() + "|" + t.Attr2
	default:
		return "?"
	}
}

// String renders the test for diagnostics.
func (t *ConstTest) String() string { return t.key() }

// testsByKey sorts tests and their precomputed keys together.
type testsByKey struct {
	tests []ConstTest
	keys  []string
}

func (s *testsByKey) Len() int           { return len(s.tests) }
func (s *testsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *testsByKey) Swap(i, j int) {
	s.tests[i], s.tests[j] = s.tests[j], s.tests[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// ConstNode is a node in the alpha test chain. Passing WMEs flow to the
// children and, if present, into the output alpha memory.
type ConstNode struct {
	ID       int
	Test     ConstTest
	Children []*ConstNode
	Mem      *AlphaMem
	// testKey caches Test.key() for node sharing during compilation.
	testKey string
	// compiled, when non-nil, is the closure-specialised test (see
	// EnableCompiledDispatch).
	compiled func(*ops5.WME) bool
	// SharedBy counts the condition elements compiled onto this node;
	// >1 means the node is shared between CEs (possibly across
	// productions), the sharing the paper says is lost under production
	// parallelism (§4).
	SharedBy int
}

// AlphaMem stores the WMEs passing one condition element's constant
// tests, and feeds the two-input nodes attached to its output.
type AlphaMem struct {
	ID    int
	Items []*ops5.WME
	// Succs are the two-input nodes whose right input is this memory.
	Succs []*JoinNode
	// ProdRefs lists the (production, LHS index) pairs reading this
	// memory; used for affected-production statistics (§4, E9).
	ProdRefs []ProdRef
	// indexes are the equality-join hash indexes over Items, built at
	// prepare time and shared between joins with the same key spec.
	indexes []*alphaIndex
	// pos maps each item to its slice position for O(1) removal.
	pos map[*ops5.WME]int
	// Mu guards Items in the parallel runtime only.
	Mu sync.Mutex
}

// ProdRef identifies one condition element of one production.
type ProdRef struct {
	Production *ops5.Production
	CE         int
}

// insert appends w, recording its position once the memory is large
// enough that linear removal would cost more than map upkeep. The
// position map is built lazily at the linearProbeMin crossing and kept
// thereafter.
func (am *AlphaMem) insert(w *ops5.WME) {
	if am.pos == nil && len(am.Items) >= linearProbeMin {
		am.pos = make(map[*ops5.WME]int, len(am.Items)+1)
		for i, x := range am.Items {
			am.pos[x] = i
		}
	}
	if am.pos != nil {
		am.pos[w] = len(am.Items)
	}
	am.Items = append(am.Items, w)
}

// remove deletes one occurrence of w, reporting whether it was present.
// The last item is swapped into the hole (memory order carries no
// meaning), so removal is O(1) via the position map once it exists, and
// a short scan before then.
func (am *AlphaMem) remove(w *ops5.WME) bool {
	if am.pos == nil {
		for i, x := range am.Items {
			if x == w {
				last := len(am.Items) - 1
				am.Items[i] = am.Items[last]
				am.Items[last] = nil
				am.Items = am.Items[:last]
				return true
			}
		}
		return false
	}
	i, ok := am.pos[w]
	if !ok {
		return false
	}
	delete(am.pos, w)
	last := len(am.Items) - 1
	if i != last {
		moved := am.Items[last]
		am.Items[i] = moved
		am.pos[moved] = i
	}
	am.Items[last] = nil
	am.Items = am.Items[:last]
	return true
}

// Token is a sequence of WMEs matching the positive condition elements
// processed so far, in LHS order. Tokens are immutable; extension copies.
// Short tokens (the overwhelmingly common case) store their WMEs in the
// inline arr, so extension is a single allocation (the struct fills the
// 80-byte size class exactly).
type Token struct {
	WMEs []*ops5.WME
	arr  [6]*ops5.WME
	// id is the identity hash: the WMEs' time tags folded in order, the
	// parent's id extended by one tag at Extend, so no lookup ever walks
	// the tag list again. The zero Token is the empty token.
	id uint64
}

// Extend returns a new token with w appended.
func (t *Token) Extend(w *ops5.WME) *Token {
	n := len(t.WMEs) + 1
	nt := &Token{id: hashTag(t.id, w.TimeTag)}
	if n <= len(nt.arr) {
		nt.WMEs = nt.arr[:n]
	} else {
		nt.WMEs = make([]*ops5.WME, n)
	}
	copy(nt.WMEs, t.WMEs)
	nt.WMEs[n-1] = w
	return nt
}

// IDHash returns the token's identity hash, the key of every structural
// token lookup in the serial and the parallel matcher. Equal tokens
// (same WME sequence) always hash equal; collisions are possible, so
// lookups re-verify candidates with EqualTo.
func (t *Token) IDHash() uint64 { return t.id }

// EqualTo reports structural equality (same WME pointers in order).
func (t *Token) EqualTo(o *Token) bool {
	if len(t.WMEs) != len(o.WMEs) {
		return false
	}
	for i := range t.WMEs {
		if t.WMEs[i] != o.WMEs[i] {
			return false
		}
	}
	return true
}

// String renders the token's time tags.
func (t *Token) String() string {
	parts := make([]string, len(t.WMEs))
	for i, w := range t.WMEs {
		parts[i] = fmt.Sprint(w.TimeTag)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// BetaMem stores the tokens matching a prefix of a production's positive
// condition elements and feeds the two-input nodes using it as left
// input, plus any terminals.
type BetaMem struct {
	ID     int
	Tokens []*Token
	// Joins are the two-input nodes whose left input is this memory.
	Joins []*JoinNode
	// Terminals fire when tokens reach this memory.
	Terminals []*Terminal
	// indexes are the equality-join hash indexes over Tokens, built at
	// prepare time and shared between joins with the same key spec.
	indexes []*betaIndex
	// pos maps token identity hashes to slice positions for O(1)
	// removal (time tags make chains unique, so buckets are single-entry
	// in practice; EqualTo re-verifies either way). Unbuilt until the
	// memory first reaches linearProbeMin tokens.
	pos Buckets[int32]
	// Mu guards Tokens in the parallel runtime only.
	Mu sync.Mutex
}

// hashTag folds one time tag into an identity hash.
func hashTag(h uint64, tag int) uint64 {
	const prime = 1099511628211
	bits := uint64(tag)
	for i := 0; i < 4; i++ {
		h = (h ^ (bits & 0xffff)) * prime
		bits >>= 16
	}
	return h
}

// insert appends tok, recording its position under its identity key
// once the memory is large enough that linear removal would cost more
// than map upkeep. The position map is built lazily at the
// linearProbeMin crossing and kept thereafter.
func (bm *BetaMem) insert(tok *Token) {
	if !bm.pos.Ready() && len(bm.Tokens) >= linearProbeMin {
		bm.pos.Reserve(len(bm.Tokens) + 1)
		for i, t := range bm.Tokens {
			bm.pos.Add(t.id, int32(i))
		}
	}
	if bm.pos.Ready() {
		bm.pos.Add(tok.id, int32(len(bm.Tokens)))
	}
	bm.Tokens = append(bm.Tokens, tok)
}

// remove deletes one token structurally equal to tok, reporting
// presence. Lookup goes through the identity-key position map once it
// exists (a short EqualTo scan before then) and the hole is filled by
// swapping in the last token (token order carries no meaning), so
// removal is O(1) instead of a linear EqualTo scan.
func (bm *BetaMem) remove(tok *Token) bool {
	_, ok := bm.removeWhere(tok.id, func(t *Token) bool { return t.EqualTo(tok) })
	return ok
}

// removeExt deletes the token formed by base's WMEs plus w without
// materialising it, returning the stored token so the caller can
// propagate the removal downstream. It is the delete-path counterpart of
// insert(base.Extend(w)) and saves one token allocation per removal.
func (bm *BetaMem) removeExt(base *Token, w *ops5.WME) (*Token, bool) {
	return bm.removeWhere(hashTag(base.id, w.TimeTag), func(t *Token) bool { return extEqual(t, base, w) })
}

// removeWhere deletes and returns the token with identity hash id that
// satisfies equal.
func (bm *BetaMem) removeWhere(id uint64, equal func(*Token) bool) (*Token, bool) {
	if !bm.pos.Ready() {
		for i, t := range bm.Tokens {
			if equal(t) {
				bm.swapRemove(i)
				return t, true
			}
		}
		return nil, false
	}
	prev := int32(-1)
	for e := bm.pos.Head(id); e >= 0; prev, e = e, bm.pos.Next(e) {
		p := int(*bm.pos.At(e))
		t := bm.Tokens[p]
		if !equal(t) {
			continue
		}
		bm.pos.Unlink(id, prev, e)
		bm.swapRemove(p)
		return t, true
	}
	return nil, false
}

// extEqual reports whether t equals base extended by w.
func extEqual(t, base *Token, w *ops5.WME) bool {
	n := len(base.WMEs)
	if len(t.WMEs) != n+1 || t.WMEs[n] != w {
		return false
	}
	for i := 0; i < n; i++ {
		if t.WMEs[i] != base.WMEs[i] {
			return false
		}
	}
	return true
}

// swapRemove deletes Tokens[i] by moving the last token into the hole
// and updating that token's position entry.
func (bm *BetaMem) swapRemove(i int) {
	last := len(bm.Tokens) - 1
	if i != last {
		moved := bm.Tokens[last]
		bm.Tokens[i] = moved
		if bm.pos.Ready() {
			for e := bm.pos.Head(moved.id); e >= 0; e = bm.pos.Next(e) {
				if p := bm.pos.At(e); int(*p) == last {
					*p = int32(i)
					break
				}
			}
		}
	}
	bm.Tokens[last] = nil
	bm.Tokens = bm.Tokens[:last]
}

// JoinTest is one inter-element variable consistency test evaluated at a
// two-input node: rightWME[RightAttr] Pred token[LeftIdx][LeftAttr].
// Attributes carry their interned IDs so the join hot path resolves
// fields by integer compare.
type JoinTest struct {
	Pred      ops5.Predicate
	RightAttr string
	RightID   sym.ID
	LeftIdx   int
	LeftAttr  string
	LeftID    sym.ID
}

// Eval applies the test.
func (jt *JoinTest) Eval(tok *Token, w *ops5.WME) bool {
	return jt.Pred.Compare(w.GetID(jt.RightID), tok.WMEs[jt.LeftIdx].GetID(jt.LeftID))
}

// key returns a canonical identity used for node sharing.
func (jt *JoinTest) key() string {
	return jt.Pred.String() + "|" + jt.RightAttr + "|" + strconv.Itoa(jt.LeftIdx) + "|" + jt.LeftAttr
}

// JoinKind discriminates and-nodes from not-nodes.
type JoinKind uint8

// The two-input node kinds.
const (
	JoinPositive JoinKind = iota
	JoinNegative
)

// negDelete unlinks the record for a token equal to tok under join-key
// hash k in the indexed not-node state, returning its match count.
func (j *JoinNode) negDelete(k uint64, tok *Token) (count int, found bool) {
	prev := int32(-1)
	for i := j.negIndex.Head(k); i >= 0; prev, i = i, j.negIndex.Next(i) {
		if rec := j.negIndex.At(i); rec.tok.EqualTo(tok) {
			count = rec.count
			j.negIndex.Unlink(k, prev, i)
			return count, true
		}
	}
	return 0, false
}

// negRecord is a left token stored in a not-node with its count of
// matching right WMEs.
type negRecord struct {
	tok   *Token
	count int
}

// JoinNode is a two-input node: left input a beta memory (or the dummy
// top), right input an alpha memory. A positive node emits extended
// tokens into Out; a negative node passes its left token through to Out
// when no right WME matches.
type JoinNode struct {
	ID    int
	Kind  JoinKind
	Left  *BetaMem
	Right *AlphaMem
	Tests []JoinTest
	Out   *BetaMem
	// negRecords holds the left tokens with match counts (not-nodes
	// without an equality key; indexed not-nodes use negIndex instead).
	negRecords []*negRecord
	// Hash-join state, filled by Network.prepare when Tests contains at
	// least one equality test: leftHash/rightHash compute the join key
	// hash of a token/WME, and leftIdx/rightIdx are the opposite
	// memories' bucket indexes probed by activations. nil means linear
	// fallback.
	leftHash  func(*Token) uint64
	rightHash func(*ops5.WME) uint64
	leftIdx   *betaIndex
	rightIdx  *alphaIndex
	// leftScratch/rightScratch are this node's probe buffers, reused
	// across activations so bucket collection does not allocate. Safe
	// to reuse: the network is a DAG, so a node is never re-activated
	// while one of its own probes is still being iterated.
	leftScratch  []*Token
	rightScratch []*ops5.WME
	// negIndex holds an indexed not-node's (negIndexed) left records by
	// value, bucketed by join key hash; negCount tracks their number for
	// StateSize. Records are only added on this node's own left
	// activation, which never nests inside an iteration of the same
	// node's chains (propagation flows strictly downstream), so pointers
	// into the buckets taken during a walk stay valid.
	negIndexed bool
	negIndex   Buckets[negRecord]
	negCount   int
	// compiled, when non-nil, is the closure-specialised test chain.
	compiled func(*Token, *ops5.WME) bool
	// SharedBy counts the productions compiled onto this node.
	SharedBy int
	// Prof accumulates the node's activation work for live hot-node
	// profiling; only the serial runtime writes it.
	Prof NodeProf
	// Mu guards negRecords in the parallel runtime only.
	Mu sync.Mutex
}

// match reports whether every test passes for (tok, w).
func (j *JoinNode) match(tok *Token, w *ops5.WME) bool {
	for i := range j.Tests {
		if !j.Tests[i].Eval(tok, w) {
			return false
		}
	}
	return true
}

// Terminal announces conflict-set changes for one production.
type Terminal struct {
	ID         int
	Production *ops5.Production
	// posIndex maps token position -> LHS condition-element index.
	posIndex []int
	// live caches the instantiation of each token currently in the
	// conflict set, keyed by token identity hash (chains re-verified
	// with EqualTo), so removals don't rebuild variable bindings. Only
	// the serial runtime touches it; the parallel runtime calls
	// Instantiate directly, which stays pure.
	live Buckets[liveInst]
}

// liveInst pairs a live token with its cached instantiation.
type liveInst struct {
	tok  *Token
	inst *ops5.Instantiation
}

// liveTake removes and returns the cached instantiation for tok, or nil
// when none is cached.
func (t *Terminal) liveTake(tok *Token) *ops5.Instantiation {
	prev := int32(-1)
	for i := t.live.Head(tok.id); i >= 0; prev, i = i, t.live.Next(i) {
		if e := t.live.At(i); e.tok.EqualTo(tok) {
			inst := e.inst
			t.live.Unlink(tok.id, prev, i)
			return inst
		}
	}
	return nil
}

// Instantiate builds the instantiation for a complete token. Variable
// bindings are deferred: most instantiations enter and leave the
// conflict set without firing, so the LHS binding walk happens lazily in
// ops5.Instantiation.EvalBindings only when the RHS is evaluated.
func (t *Terminal) Instantiate(tok *Token) *ops5.Instantiation {
	inst := ops5.NewInstantiation(t.Production, len(t.Production.LHS))
	for pos, lhsIdx := range t.posIndex {
		inst.WMEs[lhsIdx] = tok.WMEs[pos]
	}
	return inst
}

// Network is a compiled Rete network over a fixed set of productions.
type Network struct {
	roots    map[sym.ID]*ConstNode
	alphas   []*AlphaMem
	betas    []*BetaMem
	joins    []*JoinNode
	terms    []*Terminal
	prods    []*ops5.Production
	dummyTop *BetaMem

	alphaByKey map[string]*AlphaMem
	joinByKey  map[string]*JoinNode

	nextID int

	// OnInsert and OnRemove receive conflict-set deltas. They must be
	// set before Apply. In the parallel runtime they may be called
	// concurrently.
	OnInsert func(*ops5.Instantiation)
	OnRemove func(*ops5.Instantiation)

	// Tracer, when non-nil, receives one event per node activation.
	Tracer TraceFunc

	// Stats accumulates match statistics across Apply calls.
	Stats Stats

	started  bool
	prepared bool
	seq      int64
}

// New returns an empty network with no productions.
func New() *Network {
	n := &Network{
		roots:      make(map[sym.ID]*ConstNode),
		alphaByKey: make(map[string]*AlphaMem),
		joinByKey:  make(map[string]*JoinNode),
	}
	n.dummyTop = n.newBetaMem()
	n.dummyTop.insert(&Token{})
	return n
}

// Compile builds a network for the given productions.
func Compile(prods []*ops5.Production) (*Network, error) {
	n := New()
	for _, p := range prods {
		if err := n.AddProduction(p); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Productions returns the productions compiled into the network.
func (n *Network) Productions() []*ops5.Production { return n.prods }

// DummyTop returns the top beta memory holding the single empty token.
func (n *Network) DummyTop() *BetaMem { return n.dummyTop }

// Alphas returns the alpha memories (for inspection and statistics).
func (n *Network) Alphas() []*AlphaMem { return n.alphas }

// Joins returns the two-input nodes.
func (n *Network) Joins() []*JoinNode { return n.joins }

// Betas returns the beta memories.
func (n *Network) Betas() []*BetaMem { return n.betas }

// Terminals returns the terminal nodes.
func (n *Network) Terminals() []*Terminal { return n.terms }

func (n *Network) id() int {
	n.nextID++
	return n.nextID
}

func (n *Network) newBetaMem() *BetaMem {
	bm := &BetaMem{ID: n.id()}
	n.betas = append(n.betas, bm)
	return bm
}

// binder records where a variable was first bound.
type binder struct {
	tokenIdx int
	attr     string
}

// AddProduction compiles a production into the network, sharing nodes
// with previously added productions where possible. It must be called
// before the first Apply.
func (n *Network) AddProduction(p *ops5.Production) error {
	if n.started {
		return fmt.Errorf("rete: cannot add production %s after matching has started", p.Name)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	binders := make(map[string]binder)
	curBeta := n.dummyTop
	tokenLen := 0
	term := &Terminal{ID: n.id(), Production: p}

	for ceIdx, ce := range p.LHS {
		am, localBinders, err := n.buildAlpha(p, ceIdx, ce, binders)
		if err != nil {
			return err
		}
		tests, err := n.buildJoinTests(p, ce, binders, localBinders)
		if err != nil {
			return err
		}
		kind := JoinPositive
		if ce.Negated {
			kind = JoinNegative
		}
		j := n.findOrAddJoin(kind, curBeta, am, tests)
		curBeta = j.Out
		if !ce.Negated {
			// Register binders established by this CE.
			for v, b := range localBinders {
				if _, exists := binders[v]; !exists {
					binders[v] = binder{tokenIdx: tokenLen, attr: b}
				}
			}
			term.posIndex = append(term.posIndex, ceIdx)
			tokenLen++
		}
	}
	curBeta.Terminals = append(curBeta.Terminals, term)
	n.terms = append(n.terms, term)
	n.prods = append(n.prods, p)
	return nil
}

// buildAlpha compiles the single-WME tests of a CE into the shared alpha
// network and returns the alpha memory plus the CE-local equality
// binders (var -> attr of first equality occurrence inside this CE).
func (n *Network) buildAlpha(p *ops5.Production, ceIdx int, ce *ops5.CondElement, outer map[string]binder) (*AlphaMem, map[string]string, error) {
	local := make(map[string]string)
	var tests []ConstTest
	for _, at := range ce.Tests {
		for _, t := range at.Terms {
			switch t.Kind {
			case ops5.TermConst:
				tests = append(tests, ConstTest{Kind: ctConst, Attr: at.Attr, AttrID: at.AttrID, Pred: t.Pred, Val: t.Val})
			case ops5.TermDisj:
				tests = append(tests, ConstTest{Kind: ctDisj, Attr: at.Attr, AttrID: at.AttrID, Disj: t.Disj})
			case ops5.TermVar:
				if a, boundHere := local[t.Var]; boundHere {
					// Intra-element test against the local binding.
					if !(t.Pred == ops5.PredEq && a == at.Attr) {
						tests = append(tests, ConstTest{Kind: ctAttrRel, Attr: at.Attr, AttrID: at.AttrID,
							Pred: t.Pred, Attr2: a, Attr2ID: sym.Intern(a)})
					}
					continue
				}
				if _, boundEarlier := outer[t.Var]; boundEarlier {
					continue // becomes a join test
				}
				if t.Pred == ops5.PredEq {
					local[t.Var] = at.Attr
					continue
				}
				return nil, nil, fmt.Errorf(
					"rete: production %s: variable <%s> used with predicate %s before being bound",
					p.Name, t.Var, t.Pred)
			}
		}
	}
	// Canonical order maximises sharing across CEs. Keys are computed
	// once up front: key() builds strings, and calling it inside the
	// sort comparator and child scans below would allocate per compare.
	keys := make([]string, len(tests))
	for i := range tests {
		keys[i] = tests[i].key()
	}
	sort.Sort(&testsByKey{tests, keys})

	root := n.roots[ce.ClassID]
	if root == nil {
		root = &ConstNode{ID: n.id(), Test: ConstTest{Kind: ctAlways}}
		n.roots[ce.ClassID] = root
	}
	root.SharedBy++
	cur := root
	key := "class:" + ce.Class
	for i := range tests {
		key += "/" + keys[i]
		var child *ConstNode
		for _, c := range cur.Children {
			if c.testKey == keys[i] {
				child = c
				break
			}
		}
		if child == nil {
			child = &ConstNode{ID: n.id(), Test: tests[i], testKey: keys[i]}
			cur.Children = append(cur.Children, child)
		}
		child.SharedBy++
		cur = child
	}
	am := n.alphaByKey[key]
	if am == nil {
		am = &AlphaMem{ID: n.id()}
		n.alphaByKey[key] = am
		n.alphas = append(n.alphas, am)
		cur.Mem = am
	}
	am.ProdRefs = append(am.ProdRefs, ProdRef{Production: p, CE: ceIdx})
	return am, local, nil
}

// buildJoinTests compiles the inter-element variable tests of a CE.
func (n *Network) buildJoinTests(p *ops5.Production, ce *ops5.CondElement, outer map[string]binder, local map[string]string) ([]JoinTest, error) {
	var tests []JoinTest
	seenEq := make(map[string]bool) // vars whose equality-vs-outer test is already emitted
	for _, at := range ce.Tests {
		for _, t := range at.Terms {
			if t.Kind != ops5.TermVar {
				continue
			}
			b, boundEarlier := outer[t.Var]
			if !boundEarlier {
				continue // local to this CE; handled in alpha
			}
			if t.Pred == ops5.PredEq {
				// The first equality occurrence tests against the outer
				// binding; repeats within the CE were already chained to
				// the local attr by buildAlpha only when the var was
				// local, so emit every equality occurrence here unless
				// it is a same-attr duplicate.
				tk := t.Var + "@" + at.Attr
				if seenEq[tk] {
					continue
				}
				seenEq[tk] = true
			}
			tests = append(tests, JoinTest{
				Pred:      t.Pred,
				RightAttr: at.Attr,
				RightID:   at.AttrID,
				LeftIdx:   b.tokenIdx,
				LeftAttr:  b.attr,
				LeftID:    sym.Intern(b.attr),
			})
		}
	}
	return tests, nil
}

// findOrAddJoin returns a shared or fresh two-input node.
func (n *Network) findOrAddJoin(kind JoinKind, left *BetaMem, right *AlphaMem, tests []JoinTest) *JoinNode {
	key := strconv.Itoa(int(kind)) + "|" + strconv.Itoa(left.ID) + "|" + strconv.Itoa(right.ID)
	tkeys := make([]string, len(tests))
	for i := range tests {
		tkeys[i] = tests[i].key()
	}
	sort.Strings(tkeys)
	key += "|" + strings.Join(tkeys, ";")
	if j := n.joinByKey[key]; j != nil {
		j.SharedBy++
		return j
	}
	j := &JoinNode{
		ID:       n.id(),
		Kind:     kind,
		Left:     left,
		Right:    right,
		Tests:    tests,
		Out:      n.newBetaMem(),
		SharedBy: 1,
	}
	left.Joins = append(left.Joins, j)
	// Prepend so that descendant joins are right-activated before their
	// ancestors: when one WME reaches both inputs of a join (a CE chain
	// where two CEs share an alpha memory), the pair must be emitted
	// exactly once — by the ancestor's token flowing down, not by the
	// descendant's right activation seeing a token that does not exist
	// yet. Activating descendants first guarantees this (Forgy's OPS5
	// ordering; see also Doorenbos 1995 §2.4.1).
	right.Succs = append([]*JoinNode{j}, right.Succs...)
	n.joins = append(n.joins, j)
	n.joinByKey[key] = j
	return j
}
