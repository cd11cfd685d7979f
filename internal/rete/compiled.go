package rete

import "repro/internal/ops5"

// This file implements compiled node dispatch: §2.2 describes how the
// OPS5 interpreters gained a large speed-up when the network stopped
// being interpreted node-by-node and was compiled into machine code
// (Lisp 8 → Bliss 40 → compiled OPS83 200 wme-changes/sec). The Go
// equivalent of that step is specialising each node's test chain into
// a closure, eliminating the per-test kind/predicate switch dispatch.
// CompilePlan builds the closures; the parallel matcher always runs
// them, the serial network once EnableCompiledDispatch is called, so
// that BenchmarkDispatch in bench_test.go can measure the difference.

// compilePred specialises one predicate comparison.
func compilePred(p ops5.Predicate) func(a, b ops5.Value) bool {
	switch p {
	case ops5.PredEq:
		return func(a, b ops5.Value) bool { return a.Equal(b) }
	case ops5.PredNe:
		return func(a, b ops5.Value) bool { return !a.Equal(b) }
	case ops5.PredSameType:
		return func(a, b ops5.Value) bool { return a.Kind == b.Kind }
	case ops5.PredLt:
		return func(a, b ops5.Value) bool {
			return a.Kind == ops5.NumValue && b.Kind == ops5.NumValue && a.Num < b.Num
		}
	case ops5.PredGt:
		return func(a, b ops5.Value) bool {
			return a.Kind == ops5.NumValue && b.Kind == ops5.NumValue && a.Num > b.Num
		}
	case ops5.PredLe:
		return func(a, b ops5.Value) bool {
			return a.Kind == ops5.NumValue && b.Kind == ops5.NumValue && a.Num <= b.Num
		}
	case ops5.PredGe:
		return func(a, b ops5.Value) bool {
			return a.Kind == ops5.NumValue && b.Kind == ops5.NumValue && a.Num >= b.Num
		}
	default:
		return func(a, b ops5.Value) bool { return p.Compare(a, b) }
	}
}

// compileConstTest specialises one alpha-network test.
func compileConstTest(t *ConstTest) func(*ops5.WME) bool {
	switch t.Kind {
	case ctAlways:
		return func(*ops5.WME) bool { return true }
	case ctConst:
		attr, val := t.AttrID, t.Val
		cmp := compilePred(t.Pred)
		return func(w *ops5.WME) bool { return cmp(w.GetID(attr), val) }
	case ctDisj:
		attr := t.AttrID
		vals := t.Disj
		return func(w *ops5.WME) bool {
			v := w.GetID(attr)
			for _, d := range vals {
				if v.Equal(d) {
					return true
				}
			}
			return false
		}
	case ctAttrRel:
		a1, a2 := t.AttrID, t.Attr2ID
		cmp := compilePred(t.Pred)
		return func(w *ops5.WME) bool { return cmp(w.GetID(a1), w.GetID(a2)) }
	default:
		tt := *t
		return func(w *ops5.WME) bool { return tt.Eval(w) }
	}
}

// CompileJoinTests specialises a two-input node's full test chain into
// one closure.
func CompileJoinTests(tests []JoinTest) func(*Token, *ops5.WME) bool {
	if len(tests) == 0 {
		return func(*Token, *ops5.WME) bool { return true }
	}
	if len(tests) == 1 {
		jt := tests[0]
		cmp := compilePred(jt.Pred)
		return func(tok *Token, w *ops5.WME) bool {
			return cmp(w.GetID(jt.RightID), tok.WMEs[jt.LeftIdx].GetID(jt.LeftID))
		}
	}
	compiled := make([]func(*Token, *ops5.WME) bool, len(tests))
	for i := range tests {
		jt := tests[i]
		cmp := compilePred(jt.Pred)
		compiled[i] = func(tok *Token, w *ops5.WME) bool {
			return cmp(w.GetID(jt.RightID), tok.WMEs[jt.LeftIdx].GetID(jt.LeftID))
		}
	}
	return func(tok *Token, w *ops5.WME) bool {
		for _, f := range compiled {
			if !f(tok, w) {
				return false
			}
		}
		return true
	}
}

// EnableCompiledDispatch switches Apply from interpreted per-test
// switch dispatch to the closures the plan carries. It may be called
// any time before or between Apply calls.
func (n *Network) EnableCompiledDispatch() { n.compiled = true }

// evalConst applies a constant node's test.
func (n *Network) evalConst(c *ConstNode, w *ops5.WME) bool {
	if n.compiled {
		return c.compiled(w)
	}
	return c.Test.Eval(w)
}

// evalJoin applies a join node's tests.
func (n *Network) evalJoin(j *JoinNode, tok *Token, w *ops5.WME) bool {
	if n.compiled {
		return j.Match(tok, w)
	}
	for i := range j.Tests {
		if !j.Tests[i].Eval(tok, w) {
			return false
		}
	}
	return true
}
