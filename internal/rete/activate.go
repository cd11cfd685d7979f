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

// Stats accumulates match statistics over all Apply calls.
type Stats struct {
	// Changes is the number of WM changes processed.
	Changes int
	// Activations counts node activations by kind.
	Activations [KindTerm + 1]int64
	// ConstTests is the total number of constant tests evaluated.
	ConstTests int64
	// TokenComparisons is the total number of (token, wme) pairs tested
	// at two-input nodes (bucket candidates only, for indexed nodes).
	TokenComparisons int64
	// IndexedProbes counts two-input activations answered from a hash
	// bucket instead of a linear scan.
	IndexedProbes int64
	// ConflictInserts and ConflictRemoves count conflict-set deltas.
	ConflictInserts int64
	// ConflictRemoves counts conflict-set removals.
	ConflictRemoves int64
	// AffectedProductions is the total over changes of the number of
	// productions with at least one alpha memory touched by the change
	// (the paper's "affected productions", ~30 per change).
	AffectedProductions int64
	// TwoInputPerProduction histograms two-input activations per
	// affected production per change (index clamped at 15).
	TwoInputPerProduction [16]int64
	// Anomalies counts removal requests for absent tokens (should be 0).
	Anomalies int64
}

// TotalActivations returns the number of node activations of all kinds.
func (s *Stats) TotalActivations() int64 {
	var t int64
	for _, v := range s.Activations {
		t += v
	}
	return t
}

// AvgAffected returns the mean number of affected productions per change.
func (s *Stats) AvgAffected() float64 {
	if s.Changes == 0 {
		return 0
	}
	return float64(s.AffectedProductions) / float64(s.Changes)
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

// applyCtx is the per-change bookkeeping threaded through the
// propagation. A network owns one and reuses it for every change.
type applyCtx struct {
	change int
	dir    ops5.ChangeKind
	// credits[p] is one more than the number of two-input activations
	// the change in flight has caused for Plan.Productions[p], zero
	// while the change has not reached p. touched lists the non-zero
	// ones, so closing a change costs its affected productions, not the
	// program's.
	credits []int32
	touched []int32
}

// credit marks the productions reading an alpha memory as affected by
// the change in flight and attributes n two-input activations to each,
// for the per-production variance histogram.
func (ctx *applyCtx) credit(refs []ProdRef, n int32) {
	for _, ref := range refs {
		if ctx.credits[ref.Prod] == 0 {
			ctx.credits[ref.Prod] = 1
			ctx.touched = append(ctx.touched, int32(ref.Prod))
		}
		ctx.credits[ref.Prod] += n
	}
}

// Apply processes a batch of working-memory changes through the network
// serially, in order. Insert WMEs must already carry their time tags
// (working memory assigns them).
func (n *Network) Apply(changes []ops5.Change) {
	ctx := &n.ctx
	for i, ch := range changes {
		ctx.change, ctx.dir = i, ch.Kind
		root := n.roots[ch.WME.ClassID()]
		tests := 0
		rootSeq := n.nextSeq()
		if root != nil {
			n.visitConst(root, ch.WME, ctx, rootSeq, &tests)
		}
		n.Stats.ConstTests += int64(tests)
		n.Stats.Changes++
		n.Stats.Activations[KindRoot]++
		n.Stats.AffectedProductions += int64(len(ctx.touched))
		for _, p := range ctx.touched {
			n.Stats.TwoInputPerProduction[min(ctx.credits[p]-1, 15)]++
			ctx.credits[p] = 0
		}
		ctx.touched = ctx.touched[:0]
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
func (n *Network) visitConst(node *ConstNode, w *ops5.WME, ctx *applyCtx, parent int64, tests *int) {
	*tests++
	if !node.Test.Eval(w) {
		return
	}
	if node.Mem != nil {
		n.alphaActivate(node.Mem, w, ctx, parent)
	}
	for _, c := range node.Children {
		n.visitConst(c, w, ctx, parent, tests)
	}
}

// alphaActivate updates an alpha memory and right-activates successors.
func (n *Network) alphaActivate(a *AlphaNode, w *ops5.WME, ctx *applyCtx, parent int64) {
	seq := n.nextSeq()
	n.Stats.Activations[KindAlpha]++
	ctx.credit(a.ProdRefs, 0)
	am := &n.alphas[a.Index]
	m := keyMemo[*ops5.WME]{x: w, keys: a.Keys}
	switch ctx.dir {
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
		Seq: seq, Parent: parent, Change: ctx.change, Kind: KindAlpha,
		NodeID: a.ID, Dir: ctx.dir, SharedBy: len(a.ProdRefs),
	})
	for _, j := range a.Succs {
		n.rightActivate(j, &m, ctx, seq)
	}
}

// rightActivate processes a WME arriving on the right input of a
// two-input node, on its way through the node's right memory (m).
func (n *Network) rightActivate(j *JoinNode, m *keyMemo[*ops5.WME], ctx *applyCtx, parent int64) {
	seq := n.nextSeq()
	ctx.credit(j.Right.ProdRefs, 1)
	w := m.x
	st := &n.joins[j.Index]
	switch j.Kind {
	case JoinPositive:
		n.Stats.Activations[KindJoinRight]++
		tested, emitted := 0, 0
		left := &n.betas[j.Left.Index]
		toks := left.items
		indexed := st.leftIdx != nil && len(toks) >= linearProbeMin
		if indexed {
			toks = st.leftIdx.probe(m.key(j.RightKey), &st.leftScratch)
			n.Stats.IndexedProbes++
		}
		for _, tok := range toks {
			tested++
			if j.Eval(tok, w) {
				emitted++
				if ctx.dir == ops5.Insert {
					n.betaInsert(j.Out, tok.Extend(w), ctx, seq)
				} else {
					n.betaDeleteExt(j.Out, tok, w, ctx, seq)
				}
			}
		}
		n.Stats.TokenComparisons += int64(tested)
		st.prof.add(tested, emitted, indexed)
		n.emit(ActivationEvent{
			Seq: seq, Parent: parent, Change: ctx.change, Kind: KindJoinRight,
			NodeID: j.ID, Dir: ctx.dir, TokensTested: tested, PairsEmitted: emitted,
			SharedBy: j.SharedBy, Indexed: indexed, OppSize: len(left.items),
		})
	case JoinNegative:
		n.Stats.Activations[KindNegRight]++
		tested, emitted := 0, 0
		indexed := j.RightHash != nil
		adjust := func(rec *negRecord) {
			tested++
			if !j.Eval(rec.tok, w) {
				return
			}
			switch ctx.dir {
			case ops5.Insert:
				rec.count++
				if rec.count == 1 {
					emitted++
					n.betaDelete(j.Out, rec.tok, ctx, seq)
				}
			case ops5.Delete:
				rec.count--
				if rec.count == 0 {
					emitted++
					n.betaInsert(j.Out, rec.tok, ctx, seq)
				}
			}
		}
		if indexed {
			n.Stats.IndexedProbes++
			// Propagation from j.Out flows strictly downstream, so the
			// chain is never appended to (entries never move) while we
			// hold pointers into it.
			for e := st.negIndex.Head(m.key(j.RightKey)); e >= 0; e = st.negIndex.Next(e) {
				adjust(st.negIndex.At(e))
			}
		} else {
			for _, rec := range st.negRecords {
				adjust(rec)
			}
		}
		n.Stats.TokenComparisons += int64(tested)
		st.prof.add(tested, emitted, indexed)
		n.emit(ActivationEvent{
			Seq: seq, Parent: parent, Change: ctx.change, Kind: KindNegRight,
			NodeID: j.ID, Dir: ctx.dir, TokensTested: tested, PairsEmitted: emitted,
			SharedBy: j.SharedBy, Indexed: indexed, OppSize: len(st.negRecords) + st.negCount,
		})
	}
}

// leftActivate processes a token arriving on the left input of a
// two-input node, on its way through the node's left memory (m). dir
// gives whether the token is being added or removed.
func (n *Network) leftActivate(j *JoinNode, m *keyMemo[*Token], dir ops5.ChangeKind, ctx *applyCtx, parent int64) {
	seq := n.nextSeq()
	ctx.credit(j.Right.ProdRefs, 1)
	tok := m.x
	st := &n.joins[j.Index]
	right := &n.alphas[j.Right.Index]
	switch j.Kind {
	case JoinPositive:
		n.Stats.Activations[KindJoinLeft]++
		tested, emitted := 0, 0
		items := right.items
		indexed := st.rightIdx != nil && len(items) >= linearProbeMin
		if indexed {
			items = st.rightIdx.probe(m.key(j.LeftKey), &st.rightScratch)
			n.Stats.IndexedProbes++
		}
		for _, w := range items {
			tested++
			if j.Eval(tok, w) {
				emitted++
				if dir == ops5.Insert {
					n.betaInsert(j.Out, tok.Extend(w), ctx, seq)
				} else {
					n.betaDeleteExt(j.Out, tok, w, ctx, seq)
				}
			}
		}
		n.Stats.TokenComparisons += int64(tested)
		st.prof.add(tested, emitted, indexed)
		n.emit(ActivationEvent{
			Seq: seq, Parent: parent, Change: ctx.change, Kind: KindJoinLeft,
			NodeID: j.ID, Dir: dir, TokensTested: tested, PairsEmitted: emitted,
			SharedBy: j.SharedBy, Indexed: indexed, OppSize: len(right.items),
		})
	case JoinNegative:
		n.Stats.Activations[KindNegLeft]++
		tested, emitted := 0, 0
		indexed := j.LeftHash != nil
		switch dir {
		case ops5.Insert:
			count := 0
			items := right.items
			if st.rightIdx != nil && len(items) >= linearProbeMin {
				items = st.rightIdx.probe(m.key(j.LeftKey), &st.rightScratch)
				n.Stats.IndexedProbes++
			}
			for _, w := range items {
				tested++
				if j.Eval(tok, w) {
					count++
				}
			}
			if indexed {
				st.negIndex.Add(m.key(j.LeftKey), negRecord{tok: tok, count: count})
				st.negCount++
			} else {
				st.negRecords = append(st.negRecords, &negRecord{tok: tok, count: count})
			}
			if count == 0 {
				emitted++
				n.betaInsert(j.Out, tok, ctx, seq)
			}
		case ops5.Delete:
			found := false
			if indexed {
				if count, ok := st.negDelete(m.key(j.LeftKey), tok); ok {
					tested++
					st.negCount--
					if count == 0 {
						emitted++
						n.betaDelete(j.Out, tok, ctx, seq)
					}
					found = true
				}
			} else {
				for idx, rec := range st.negRecords {
					tested++
					if rec.tok.EqualTo(tok) {
						count := rec.count
						st.negRecords = append(st.negRecords[:idx], st.negRecords[idx+1:]...)
						if count == 0 {
							emitted++
							n.betaDelete(j.Out, tok, ctx, seq)
						}
						found = true
						break
					}
				}
			}
			if !found {
				n.Stats.Anomalies++
			}
		}
		n.Stats.TokenComparisons += int64(tested)
		st.prof.add(tested, emitted, indexed)
		n.emit(ActivationEvent{
			Seq: seq, Parent: parent, Change: ctx.change, Kind: KindNegLeft,
			NodeID: j.ID, Dir: dir, TokensTested: tested, PairsEmitted: emitted,
			SharedBy: j.SharedBy, Indexed: indexed, OppSize: len(right.items),
		})
	}
}

// betaInsert stores a token and propagates to joins and terminals.
func (n *Network) betaInsert(b *BetaNode, tok *Token, ctx *applyCtx, parent int64) {
	bm := &n.betas[b.Index]
	bm.insert(tok.id, tok)
	m := keyMemo[*Token]{x: tok, keys: b.Keys}
	for i := range bm.indexes {
		bm.indexes[i].insert(&m, i)
	}
	n.propagate(b, &m, ops5.Insert, ctx, parent)
}

// betaDelete removes a token and propagates the removal.
func (n *Network) betaDelete(b *BetaNode, tok *Token, ctx *applyCtx, parent int64) {
	stored, ok := n.betas[b.Index].remove(tok.id, tok.EqualTo, (*Token).IDHash)
	n.betaRemoved(b, stored, ok, ctx, parent)
}

// betaDeleteExt removes the token formed by base plus w and propagates
// the removal using the stored token: the delete-path counterpart of
// betaInsert(base.Extend(w)), without the token allocation.
func (n *Network) betaDeleteExt(b *BetaNode, base *Token, w *ops5.WME, ctx *applyCtx, parent int64) {
	stored, ok := n.betas[b.Index].remove(hashTag(base.id, w.TimeTag),
		func(t *Token) bool { return extEqual(t, base, w) }, (*Token).IDHash)
	n.betaRemoved(b, stored, ok, ctx, parent)
}

// betaRemoved finishes a token removal: the stored token leaves the
// memory's indexes — by the pointer they hold — and the removal
// propagates.
func (n *Network) betaRemoved(b *BetaNode, stored *Token, ok bool, ctx *applyCtx, parent int64) {
	if !ok {
		n.Stats.Anomalies++
		return
	}
	m := keyMemo[*Token]{x: stored, keys: b.Keys}
	indexes := n.betas[b.Index].indexes
	for i := range indexes {
		indexes[i].remove(&m, i)
	}
	n.propagate(b, &m, ops5.Delete, ctx, parent)
}

// propagate left-activates the joins and terminals below a beta memory.
func (n *Network) propagate(b *BetaNode, m *keyMemo[*Token], dir ops5.ChangeKind, ctx *applyCtx, parent int64) {
	for _, j := range b.Joins {
		n.leftActivate(j, m, dir, ctx, parent)
	}
	for _, t := range b.Terminals {
		n.terminalActivate(t, m.x, dir, ctx, parent)
	}
}

// terminalActivate emits a conflict-set delta.
func (n *Network) terminalActivate(t *Terminal, tok *Token, dir ops5.ChangeKind, ctx *applyCtx, parent int64) {
	seq := n.nextSeq()
	n.Stats.Activations[KindTerm]++
	live := &n.live[t.Index]
	var inst *ops5.Instantiation
	if dir == ops5.Insert {
		inst = t.Instantiate(tok)
		live.Add(tok.id, liveInst{tok: tok, inst: inst})
		n.Stats.ConflictInserts++
		if n.OnInsert != nil {
			n.OnInsert(inst)
		}
	} else {
		inst = liveTake(live, tok)
		if inst == nil {
			inst = t.Instantiate(tok)
		}
		n.Stats.ConflictRemoves++
		if n.OnRemove != nil {
			n.OnRemove(inst)
		}
	}
	n.emit(ActivationEvent{
		Seq: seq, Parent: parent, Change: ctx.change, Kind: KindTerm,
		NodeID: t.ID, Dir: dir, PairsEmitted: 1,
	})
}
