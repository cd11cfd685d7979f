package rete

import (
	"fmt"

	"repro/internal/ops5"
)

// NodeKind classifies activations for tracing and cost modelling.
type NodeKind uint8

// The activation kinds recorded in traces.
const (
	// KindRoot is the constant-test chain evaluation for one WM change.
	KindRoot NodeKind = iota
	// KindAlpha is an alpha-memory update.
	KindAlpha
	// KindJoinRight is a right (alpha-side) activation of an and-node.
	KindJoinRight
	// KindJoinLeft is a left (beta-side) activation of an and-node.
	KindJoinLeft
	// KindNegRight is a right activation of a not-node.
	KindNegRight
	// KindNegLeft is a left activation of a not-node.
	KindNegLeft
	// KindTerm is a conflict-set insertion or removal.
	KindTerm
)

// String names the activation kind.
func (k NodeKind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindAlpha:
		return "alpha"
	case KindJoinRight:
		return "join-right"
	case KindJoinLeft:
		return "join-left"
	case KindNegRight:
		return "not-right"
	case KindNegLeft:
		return "not-left"
	case KindTerm:
		return "terminal"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ActivationEvent describes one node activation. The Seq/Parent pair
// forms the dependency DAG consumed by the PSM simulator: an activation
// cannot begin before its parent completes.
type ActivationEvent struct {
	// Seq is the unique activation id (> 0).
	Seq int64
	// Parent is the activation that scheduled this one; 0 for the root
	// activation of a WM change.
	Parent int64
	// Change is the index of the WM change within the Apply batch.
	Change int
	// Kind is the node type activated.
	Kind NodeKind
	// NodeID identifies the network node (for exclusive-node modelling).
	NodeID int
	// Dir is Insert or Delete.
	Dir ops5.ChangeKind
	// TestsRun counts constant tests evaluated (root events).
	TestsRun int
	// TokensTested counts opposite-memory entries tested (join events):
	// the probed bucket's population when Indexed, the full memory
	// otherwise.
	TokensTested int
	// PairsEmitted counts tokens sent downstream.
	PairsEmitted int
	// Indexed reports whether the activation probed a hash bucket
	// rather than scanning the opposite memory.
	Indexed bool
	// OppSize is the opposite memory's total population at activation
	// time; with TokensTested it shows the work an index saved.
	OppSize int
	// SharedBy is the number of productions/CEs sharing the node; the
	// simulator uses it to model the sharing that production-level
	// parallelism loses (§4).
	SharedBy int
}

// TraceFunc receives activation events during Apply.
type TraceFunc func(ev ActivationEvent)

// Stats accumulates the match work psmd reports, over all Apply calls.
// The paper's per-change counts (affected productions, activations)
// are derived from the activation trace, in internal/trace.
type Stats struct {
	// Changes is the number of WM changes processed.
	Changes int
	// TokenComparisons is the total number of (token, wme) pairs tested
	// at two-input nodes (bucket candidates only, for indexed nodes).
	TokenComparisons int64
	// ConflictInserts and ConflictRemoves count conflict-set deltas.
	ConflictInserts int64
	// ConflictRemoves counts conflict-set removals.
	ConflictRemoves int64
	// Anomalies counts removal requests for absent tokens (should be 0).
	Anomalies int64
}

// linearProbeMin is the opposite-memory population below which a join
// activation scans linearly even though an index exists: fetching the
// join key and collecting a bucket costs more than testing a handful of
// candidates directly. Memories this small are also where most
// activations of well-partitioned programs land, so the cutover
// matters for constant factors while leaving the asymptotics indexed.
// It decides only how an activation reads the opposite memory — every
// index is maintained from the first entry — and with that what the
// trace and Stats.TokenComparisons count.
const linearProbeMin = 16

// Apply processes a batch of working-memory changes through the network
// serially, in order. Insert WMEs must already carry their time tags
// (working memory assigns them).
func (n *Network) Apply(changes []ops5.Change) {
	for i, ch := range changes {
		n.change, n.dir = i, ch.Kind
		root := n.roots[ch.WME.ClassID()]
		tests := 0
		rootSeq := n.nextSeq()
		if root != nil {
			n.visitConst(root, ch.WME, rootSeq, &tests)
		}
		n.Stats.Changes++
		n.emit(ActivationEvent{
			Seq: rootSeq, Parent: 0, Change: i, Kind: KindRoot, NodeID: 0,
			Dir: ch.Kind, TestsRun: tests,
		})
	}
}

func (n *Network) nextSeq() int64 {
	n.seq++
	return n.seq
}

func (n *Network) emit(ev ActivationEvent) {
	if n.Tracer != nil {
		n.Tracer(ev)
	}
}

// visitConst walks the constant-test chain below node for the WME.
func (n *Network) visitConst(node *ConstNode, w *ops5.WME, parent int64, tests *int) {
	*tests++
	if !node.Test.Eval(w) {
		return
	}
	if node.Mem != nil {
		n.alphaActivate(node.Mem, w, parent)
	}
	for _, c := range node.Children {
		n.visitConst(c, w, parent, tests)
	}
}

// alphaActivate updates an alpha memory and right-activates successors.
func (n *Network) alphaActivate(a *AlphaNode, w *ops5.WME, parent int64) {
	seq := n.nextSeq()
	am := &n.alphas[a.Index]
	m := keyMemo[*ops5.WME]{x: w, keys: a.Keys}
	switch n.dir {
	case ops5.Insert:
		am.insert(wmeID(w), w)
		for i := range am.indexes {
			am.indexes[i].insert(&m, i)
		}
	case ops5.Delete:
		if _, ok := am.remove(wmeID(w), func(x *ops5.WME) bool { return x == w }, wmeID); !ok {
			n.Stats.Anomalies++
			return
		}
		for i := range am.indexes {
			am.indexes[i].remove(&m, i)
		}
	}
	n.emit(ActivationEvent{
		Seq: seq, Parent: parent, Change: n.change, Kind: KindAlpha,
		NodeID: a.ID, Dir: n.dir, SharedBy: len(a.ProdRefs),
	})
	for _, j := range a.Succs {
		n.rightActivate(j, &m, seq)
	}
}

// rightActivate processes a WME arriving on the right input of a
// two-input node, on its way through the node's right memory (m).
func (n *Network) rightActivate(j *JoinNode, m *keyMemo[*ops5.WME], parent int64) {
	seq := n.nextSeq()
	w := m.x
	st := &n.joins[j.Index]
	switch j.Kind {
	case JoinPositive:
		tested, emitted := 0, 0
		left := &n.betas[j.Left.Index]
		toks := left.items
		indexed := st.leftIdx != nil && len(toks) >= linearProbeMin
		if indexed {
			toks = st.leftIdx.probe(m.key(j.RightKey), &st.leftScratch)
		}
		for _, tok := range toks {
			tested++
			if j.Eval(tok, w) {
				emitted++
				if n.dir == ops5.Insert {
					n.betaInsert(j.Out, n.extend(tok, w), seq)
				} else {
					n.betaDelete(j.Out, tok, w, seq)
				}
			}
		}
		n.Stats.TokenComparisons += int64(tested)
		n.emit(ActivationEvent{
			Seq: seq, Parent: parent, Change: n.change, Kind: KindJoinRight,
			NodeID: j.ID, Dir: n.dir, TokensTested: tested, PairsEmitted: emitted,
			SharedBy: j.SharedBy, Indexed: indexed, OppSize: len(left.items),
		})
	case JoinNegative:
		tested, emitted := 0, 0
		indexed := j.RightHash != nil
		adjust := func(rec *negRecord) {
			tested++
			if !j.Eval(rec.tok, w) {
				return
			}
			switch n.dir {
			case ops5.Insert:
				rec.count++
				if rec.count == 1 {
					emitted++
					n.betaDelete(j.Out, rec.tok, nil, seq)
				}
			case ops5.Delete:
				rec.count--
				if rec.count == 0 {
					emitted++
					n.betaInsert(j.Out, rec.tok, seq)
				}
			}
		}
		// Propagation from j.Out flows strictly downstream, so the
		// records are never appended to (entries never move) while we
		// hold pointers into them.
		if indexed {
			for e := st.negIndex.Head(m.key(j.RightKey)); e >= 0; e = st.negIndex.Next(e) {
				adjust(st.negIndex.At(e))
			}
		} else {
			// Unkeyed records are bucketed by token identity: every
			// live slot is a candidate (a free-listed one has no token).
			for e := int32(0); e < st.negIndex.Slots(); e++ {
				if rec := st.negIndex.At(e); rec.tok != nil {
					adjust(rec)
				}
			}
		}
		n.Stats.TokenComparisons += int64(tested)
		n.emit(ActivationEvent{
			Seq: seq, Parent: parent, Change: n.change, Kind: KindNegRight,
			NodeID: j.ID, Dir: n.dir, TokensTested: tested, PairsEmitted: emitted,
			SharedBy: j.SharedBy, Indexed: indexed, OppSize: st.negCount,
		})
	}
}

// leftActivate processes a token arriving on the left input of a
// two-input node, on its way through the node's left memory (m). dir
// gives whether the token is being added or removed.
func (n *Network) leftActivate(j *JoinNode, m *keyMemo[*Token], dir ops5.ChangeKind, parent int64) {
	seq := n.nextSeq()
	tok := m.x
	st := &n.joins[j.Index]
	right := &n.alphas[j.Right.Index]
	switch j.Kind {
	case JoinPositive:
		tested, emitted := 0, 0
		items := right.items
		indexed := st.rightIdx != nil && len(items) >= linearProbeMin
		if indexed {
			items = st.rightIdx.probe(m.key(j.LeftKey), &st.rightScratch)
		}
		for _, w := range items {
			tested++
			if j.Eval(tok, w) {
				emitted++
				if dir == ops5.Insert {
					n.betaInsert(j.Out, n.extend(tok, w), seq)
				} else {
					n.betaDelete(j.Out, tok, w, seq)
				}
			}
		}
		n.Stats.TokenComparisons += int64(tested)
		n.emit(ActivationEvent{
			Seq: seq, Parent: parent, Change: n.change, Kind: KindJoinLeft,
			NodeID: j.ID, Dir: dir, TokensTested: tested, PairsEmitted: emitted,
			SharedBy: j.SharedBy, Indexed: indexed, OppSize: len(right.items),
		})
	case JoinNegative:
		tested, emitted := 0, 0
		indexed := j.LeftHash != nil
		switch dir {
		case ops5.Insert:
			count := 0
			items := right.items
			if st.rightIdx != nil && len(items) >= linearProbeMin {
				items = st.rightIdx.probe(m.key(j.LeftKey), &st.rightScratch)
			}
			for _, w := range items {
				tested++
				if j.Eval(tok, w) {
					count++
				}
			}
			st.negIndex.Add(j.negKey(m), negRecord{tok: tok, count: count})
			st.negCount++
			if count == 0 {
				emitted++
				n.betaInsert(j.Out, tok, seq)
			}
		case ops5.Delete:
			if count, ok := st.negDelete(j.negKey(m), tok); ok {
				tested++
				st.negCount--
				if count == 0 {
					emitted++
					n.betaDelete(j.Out, tok, nil, seq)
				}
			} else {
				n.Stats.Anomalies++
			}
		}
		n.Stats.TokenComparisons += int64(tested)
		n.emit(ActivationEvent{
			Seq: seq, Parent: parent, Change: n.change, Kind: KindNegLeft,
			NodeID: j.ID, Dir: dir, TokensTested: tested, PairsEmitted: emitted,
			SharedBy: j.SharedBy, Indexed: indexed, OppSize: len(right.items),
		})
	}
}

// betaInsert stores a token and propagates to joins and terminals.
func (n *Network) betaInsert(b *BetaNode, tok *Token, parent int64) {
	bm := &n.betas[b.Index]
	bm.insert(tok.id, tok)
	m := keyMemo[*Token]{x: tok, keys: b.Keys}
	for i := range bm.indexes {
		bm.indexes[i].insert(&m, i)
	}
	n.propagate(b, &m, ops5.Insert, parent)
}

// betaDelete removes the token formed by base plus w (base itself when
// w is nil) — the delete-path counterpart of betaInsert(n.extend(base, w)),
// without building the token. The stored token leaves the memory's
// indexes, by the pointer they hold, and the removal propagates. A
// memory that owns the token then frees it: by now every not-node
// record, pass-through memory and conflict-set entry below has let go of
// it.
func (n *Network) betaDelete(b *BetaNode, base *Token, w *ops5.WME, parent int64) {
	bm := &n.betas[b.Index]
	stored, ok := bm.remove(base.ExtIDHash(w), func(t *Token) bool { return ExtEqual(t, base, w) }, (*Token).IDHash)
	if !ok {
		n.Stats.Anomalies++
		return
	}
	m := keyMemo[*Token]{x: stored, keys: b.Keys}
	for i := range bm.indexes {
		bm.indexes[i].remove(&m, i)
	}
	n.propagate(b, &m, ops5.Delete, parent)
	if b.Owns {
		n.free = append(n.free, stored.Recycle())
	}
}

// extend returns tok extended by w, built into a freed token when there
// is one and into a fresh one from the slab when there is none.
func (n *Network) extend(tok *Token, w *ops5.WME) *Token {
	var nt *Token
	if k := len(n.free) - 1; k >= 0 {
		nt = n.free[k]
		n.free = n.free[:k]
	} else {
		nt = n.slab.New()
	}
	tok.ExtendInto(nt, w)
	return nt
}

// propagate left-activates the joins and terminals below a beta memory.
func (n *Network) propagate(b *BetaNode, m *keyMemo[*Token], dir ops5.ChangeKind, parent int64) {
	for _, j := range b.Joins {
		n.leftActivate(j, m, dir, parent)
	}
	for _, t := range b.Terminals {
		n.terminalActivate(t, m.x, dir, parent)
	}
}

// terminalActivate emits a conflict-set delta.
func (n *Network) terminalActivate(t *Terminal, tok *Token, dir ops5.ChangeKind, parent int64) {
	seq := n.nextSeq()
	n.match = t.Match(n.match, tok, nil)
	if dir == ops5.Insert {
		n.Stats.ConflictInserts++
		n.Sink.InsertMatch(t.Production, n.match)
	} else {
		n.Stats.ConflictRemoves++
		n.Sink.RemoveMatch(t.Production, n.match)
	}
	n.emit(ActivationEvent{
		Seq: seq, Parent: parent, Change: n.change, Kind: KindTerm,
		NodeID: t.ID, Dir: dir, PairsEmitted: 1,
	})
}
