// Package rete implements the Rete match algorithm of Forgy (1982) as
// described in §2.2 of the paper: a dataflow network compiled from
// production left-hand sides, with constant-test nodes, alpha (wme)
// memories, two-input and-nodes and not-nodes, beta (token) memories and
// terminal nodes.
//
// The package is split the way the paper treats the network — as a
// fixed program that one processor or many execute. A Plan (this file)
// is the compiled program: the constant-test tree, the node descriptors
// with node sharing between productions, and per two-input node its
// equality key, key hashes and test chain. CompilePlan is the
// only thing that builds or writes one; afterwards it is immutable and
// may be shared by any number of executors on any number of goroutines.
// A Network (network.go, activate.go) is the serial executor: a Plan
// plus unsynchronised memories, the match work psmd reports, and the
// per-activation events from which internal/trace builds the trace that
// feeds the PSM multiprocessor simulator (internal/psm), exactly as in
// §6 of the paper. The parallel executor over the same Plan is
// internal/prete.
package rete

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

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

// byKey sorts tests and their precomputed canonical keys together (key()
// builds a string, so it is computed once per test, not per compare).
type byKey[T any] struct {
	tests []T
	keys  []string
}

func (s *byKey[T]) Len() int           { return len(s.tests) }
func (s *byKey[T]) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *byKey[T]) Swap(i, j int) {
	s.tests[i], s.tests[j] = s.tests[j], s.tests[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// ConstNode is a node in the alpha test chain. Passing WMEs flow to the
// children and, if present, into the output alpha memory.
type ConstNode struct {
	ID       int
	Test     ConstTest
	Children []*ConstNode
	Mem      *AlphaNode
	// testKey caches Test.key() for node sharing during compilation.
	testKey string
	// SharedBy counts the condition elements compiled onto this node;
	// >1 means the node is shared between CEs (possibly across
	// productions), the sharing the paper says is lost under production
	// parallelism (§4).
	SharedBy int
}

// AlphaNode describes an alpha memory: the WMEs passing one condition
// element's constant tests feed the two-input nodes on its output. The
// memory's contents belong to an executor, found by Index.
type AlphaNode struct {
	ID    int
	Index int // position in Plan.Alphas
	// Succs are the two-input nodes whose right input is this memory.
	Succs []*JoinNode
	// ProdRefs lists the (production, LHS index) pairs reading this
	// memory. internal/trace maps an activation of this memory, or of a
	// two-input node on its output, to these productions to count the
	// productions a change affects (§4, E9).
	ProdRefs []ProdRef
	// Keys are the distinct right-side join-key hashes of Succs, one per
	// set of nodes keying this memory by the same columns in the same
	// (canonical) order; JoinNode.RightKey indexes it. One hash index
	// over the memory serves each set.
	Keys []func(*ops5.WME) uint64
}

// ProdRef identifies one condition element of one production.
type ProdRef struct {
	Production *ops5.Production
	// Prod is Production's position in Plan.Productions.
	Prod int
	CE   int
}

// BetaNode describes a beta memory: the tokens matching a prefix of a
// production's positive condition elements feed the two-input nodes
// using it as left input, plus any terminals.
type BetaNode struct {
	ID    int
	Index int // position in Plan.Betas; 0 is the dummy top
	// Joins are the two-input nodes whose left input is this memory.
	Joins []*JoinNode
	// Terminals fire when tokens reach this memory.
	Terminals []*Terminal
	// Owns is set on the output memory of a positive join: the join
	// built every token the memory stores, so a token leaving it leaves
	// the network. A not-node's output and the dummy top store tokens
	// another memory owns.
	Owns bool
	// Keys are the distinct left-side join-key hashes of Joins, as
	// AlphaNode.Keys; JoinNode.LeftKey indexes it. One hash index over
	// the memory — in the parallel matcher, one shared left memory —
	// serves each set.
	Keys []func(*Token) uint64
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

// JoinNode is a two-input node: left input a beta memory (or the dummy
// top), right input an alpha memory. A positive node emits extended
// tokens into Out; a negative node passes its left token through to Out
// when no right WME matches.
type JoinNode struct {
	ID    int
	Index int // position in Plan.Joins
	Kind  JoinKind
	Left  *BetaNode
	Right *AlphaNode
	Tests []JoinTest
	Out   *BetaNode
	// Key is the equality subset of Tests in canonical order — the hash
	// join key — and LeftHash/RightHash fold a token's/WME's key columns
	// into the hash both executors bucket by; all nil when Tests holds no
	// equality test and activations scan the opposite memory.
	// LeftKey/RightKey place the hashes in Left.Keys/Right.Keys (-1:
	// none), shared with every node keying that memory by the same
	// columns.
	Key       []JoinTest
	LeftHash  func(*Token) uint64
	RightHash func(*ops5.WME) uint64
	LeftKey   int
	RightKey  int
	// SharedBy counts the productions compiled onto this node, and Prod
	// is the position in Plan.Productions of the first.
	SharedBy int
	Prod     int
}

// Eval applies the node's tests to a (token, WME) pair: both executors
// run this one switch-interpreted loop. Specialising the chain into
// closures — the Go counterpart of §2.2's compile step — measured no
// faster (EXPERIMENTS.md E8), so the plan holds each test once.
func (j *JoinNode) Eval(tok *Token, w *ops5.WME) bool {
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
}

// Match fills dst with the WMEs of base extended by w (of base when w
// is nil), one per condition element in LHS order and nil for a negated
// one, and returns it: the match a conflict-set delta names, built in
// the caller's scratch without building the extended token. dst grows
// when it is too short.
func (t *Terminal) Match(dst []*ops5.WME, base *Token, w *ops5.WME) []*ops5.WME {
	n := len(t.Production.LHS)
	if cap(dst) < n {
		dst = make([]*ops5.WME, n)
	}
	dst = dst[:n]
	clear(dst)
	k := len(base.WMEs)
	for pos, lhsIdx := range t.posIndex {
		if pos < k {
			dst[lhsIdx] = base.WMEs[pos]
		} else {
			dst[lhsIdx] = w
		}
	}
	return dst
}

// Plan is a compiled Rete network over a fixed set of productions:
// topology, tests and key specs, no memory contents. Nothing reachable
// from a Plan is written after CompilePlan returns.
type Plan struct {
	Productions []*ops5.Production
	Alphas      []*AlphaNode
	Betas       []*BetaNode // Betas[0] is the dummy top
	Joins       []*JoinNode
	Terminals   []*Terminal
	// IDs is one more than the largest node ID.
	IDs   int
	roots map[sym.ID]*ConstNode
}

// compiler is CompilePlan's working state: the plan under construction
// and the node-sharing tables.
type compiler struct {
	*Plan
	alphaByKey map[string]*AlphaNode
	joinByKey  map[string]*JoinNode
	nextID     int
}

// CompilePlan compiles the productions into a plan, sharing nodes
// between them where possible.
func CompilePlan(prods []*ops5.Production) (*Plan, error) {
	c := &compiler{
		Plan:       &Plan{roots: make(map[sym.ID]*ConstNode)},
		alphaByKey: make(map[string]*AlphaNode),
		joinByKey:  make(map[string]*JoinNode),
	}
	c.newBeta() // the dummy top
	for _, p := range prods {
		if err := c.addProduction(p); err != nil {
			return nil, err
		}
	}
	c.IDs = c.nextID + 1
	return c.Plan, nil
}

func (c *compiler) id() int {
	c.nextID++
	return c.nextID
}

func (c *compiler) newBeta() *BetaNode {
	b := &BetaNode{ID: c.id(), Index: len(c.Betas)}
	c.Betas = append(c.Betas, b)
	return b
}

// binder records where a variable was first bound.
type binder struct {
	tokenIdx int
	attr     string
}

func (c *compiler) addProduction(p *ops5.Production) error {
	if err := p.Validate(); err != nil {
		return err
	}
	binders := make(map[string]binder)
	curBeta := c.Betas[0]
	tokenLen := 0
	term := &Terminal{ID: c.id(), Production: p}

	for ceIdx, ce := range p.LHS {
		am, localBinders, err := c.buildAlpha(p, ceIdx, ce, binders)
		if err != nil {
			return err
		}
		tests := buildJoinTests(ce, binders)
		kind := JoinPositive
		if ce.Negated {
			kind = JoinNegative
		}
		j := c.findOrAddJoin(kind, curBeta, am, tests)
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
	c.Terminals = append(c.Terminals, term)
	c.Productions = append(c.Productions, p)
	return nil
}

// buildAlpha compiles the single-WME tests of a CE into the shared alpha
// network and returns the alpha memory plus the CE-local equality
// binders (var -> attr of first equality occurrence inside this CE).
func (c *compiler) buildAlpha(p *ops5.Production, ceIdx int, ce *ops5.CondElement, outer map[string]binder) (*AlphaNode, map[string]string, error) {
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
	// Canonical order maximises sharing across CEs.
	keys := make([]string, len(tests))
	for i := range tests {
		keys[i] = tests[i].key()
	}
	sort.Sort(&byKey[ConstTest]{tests, keys})

	root := c.roots[ce.ClassID]
	if root == nil {
		root = c.newConst(ConstTest{Kind: ctAlways}, "")
		c.roots[ce.ClassID] = root
	}
	root.SharedBy++
	cur := root
	for i := range tests {
		var child *ConstNode
		for _, ch := range cur.Children {
			if ch.testKey == keys[i] {
				child = ch
				break
			}
		}
		if child == nil {
			child = c.newConst(tests[i], keys[i])
			cur.Children = append(cur.Children, child)
		}
		child.SharedBy++
		cur = child
	}
	key := "class:" + ce.Class + "/" + strings.Join(keys, "/")
	am := c.alphaByKey[key]
	if am == nil {
		am = &AlphaNode{ID: c.id(), Index: len(c.Alphas)}
		c.alphaByKey[key] = am
		c.Alphas = append(c.Alphas, am)
		cur.Mem = am
	}
	am.ProdRefs = append(am.ProdRefs, ProdRef{Production: p, Prod: len(c.Productions), CE: ceIdx})
	return am, local, nil
}

func (c *compiler) newConst(test ConstTest, key string) *ConstNode {
	return &ConstNode{ID: c.id(), Test: test, testKey: key}
}

// buildJoinTests compiles the inter-element variable tests of a CE.
func buildJoinTests(ce *ops5.CondElement, outer map[string]binder) []JoinTest {
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
	return tests
}

// findOrAddJoin returns a shared or fresh two-input node. A fresh node
// gets everything an executor needs of it here, once: its canonical
// equality key with both sides' hashes, and their place among the keys
// of its two input memories.
func (c *compiler) findOrAddJoin(kind JoinKind, left *BetaNode, right *AlphaNode, tests []JoinTest) *JoinNode {
	key := strconv.Itoa(int(kind)) + "|" + strconv.Itoa(left.ID) + "|" + strconv.Itoa(right.ID)
	tkeys := make([]string, len(tests))
	for i := range tests {
		tkeys[i] = tests[i].key()
	}
	sort.Strings(tkeys)
	key += "|" + strings.Join(tkeys, ";")
	if j := c.joinByKey[key]; j != nil {
		j.SharedBy++
		return j
	}
	j := &JoinNode{
		ID:       c.id(),
		Index:    len(c.Joins),
		Kind:     kind,
		Left:     left,
		Right:    right,
		Tests:    tests,
		Out:      c.newBeta(),
		Key:      SplitJoinTests(tests),
		LeftKey:  -1,
		RightKey: -1,
		SharedBy: 1,
		Prod:     len(c.Productions),
	}
	j.Out.Owns = kind == JoinPositive
	if len(j.Key) > 0 {
		j.LeftHash, j.RightHash = JoinHashFuncs(j.Key)
		j.LeftKey, j.RightKey = len(left.Keys), len(right.Keys)
		for _, o := range left.Joins {
			if sameColumns(o.Key, j.Key, func(a, b *JoinTest) bool { return a.LeftIdx == b.LeftIdx && a.LeftID == b.LeftID }) {
				j.LeftKey = o.LeftKey
				break
			}
		}
		if j.LeftKey == len(left.Keys) {
			left.Keys = append(left.Keys, j.LeftHash)
		}
		for _, o := range right.Succs {
			if sameColumns(o.Key, j.Key, func(a, b *JoinTest) bool { return a.RightID == b.RightID }) {
				j.RightKey = o.RightKey
				break
			}
		}
		if j.RightKey == len(right.Keys) {
			right.Keys = append(right.Keys, j.RightHash)
		}
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
	c.Joins = append(c.Joins, j)
	c.joinByKey[key] = j
	return j
}

// sameColumns reports whether two canonical join keys name the same
// columns, in the same order, on the side that same compares.
func sameColumns(a, b []JoinTest, same func(x, y *JoinTest) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !same(&a[i], &b[i]) {
			return false
		}
	}
	return true
}
