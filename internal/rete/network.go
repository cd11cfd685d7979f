package rete

import (
	"fmt"
	"strings"

	"repro/internal/ops5"
)

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

// alphaMem is the serial contents of one alpha memory.
type alphaMem struct {
	items []*ops5.WME
	// indexes are the equality-join hash indexes over items, one per
	// key of the plan's AlphaNode.
	indexes []index[*ops5.WME]
	// pos maps each item to its slice position for O(1) removal.
	pos map[*ops5.WME]int
}

// insert appends w, recording its position once the memory is large
// enough that linear removal would cost more than map upkeep. The
// position map is built lazily at the linearProbeMin crossing and kept
// thereafter.
func (am *alphaMem) insert(w *ops5.WME) {
	if am.pos == nil && len(am.items) >= linearProbeMin {
		am.pos = make(map[*ops5.WME]int, len(am.items)+1)
		for i, x := range am.items {
			am.pos[x] = i
		}
	}
	if am.pos != nil {
		am.pos[w] = len(am.items)
	}
	am.items = append(am.items, w)
}

// remove deletes one occurrence of w, reporting whether it was present.
// The last item is swapped into the hole (memory order carries no
// meaning), so removal is O(1) via the position map once it exists, and
// a short scan before then.
func (am *alphaMem) remove(w *ops5.WME) bool {
	if am.pos == nil {
		for i, x := range am.items {
			if x == w {
				last := len(am.items) - 1
				am.items[i] = am.items[last]
				am.items[last] = nil
				am.items = am.items[:last]
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
	last := len(am.items) - 1
	if i != last {
		moved := am.items[last]
		am.items[i] = moved
		am.pos[moved] = i
	}
	am.items[last] = nil
	am.items = am.items[:last]
	return true
}

// betaMem is the serial contents of one beta memory.
type betaMem struct {
	tokens []*Token
	// indexes are the equality-join hash indexes over tokens, one per
	// key of the plan's BetaNode.
	indexes []index[*Token]
	// pos maps token identity hashes to slice positions for O(1)
	// removal (time tags make chains unique, so buckets are single-entry
	// in practice; EqualTo re-verifies either way). Unbuilt until the
	// memory first reaches linearProbeMin tokens.
	pos Buckets[int32]
}

// insert appends tok, recording its position under its identity key
// once the memory is large enough that linear removal would cost more
// than map upkeep. The position map is built lazily at the
// linearProbeMin crossing and kept thereafter.
func (bm *betaMem) insert(tok *Token) {
	if !bm.pos.Ready() && len(bm.tokens) >= linearProbeMin {
		bm.pos.Reserve(len(bm.tokens) + 1)
		for i, t := range bm.tokens {
			bm.pos.Add(t.id, int32(i))
		}
	}
	if bm.pos.Ready() {
		bm.pos.Add(tok.id, int32(len(bm.tokens)))
	}
	bm.tokens = append(bm.tokens, tok)
}

// removeExt deletes the token formed by base's WMEs plus w without
// materialising it, returning the stored token so the caller can
// propagate the removal downstream. It is the delete-path counterpart of
// insert(base.Extend(w)) and saves one token allocation per removal.
func (bm *betaMem) removeExt(base *Token, w *ops5.WME) (*Token, bool) {
	return bm.removeWhere(hashTag(base.id, w.TimeTag), func(t *Token) bool { return extEqual(t, base, w) })
}

// removeWhere deletes and returns the token with identity hash id that
// satisfies equal.
func (bm *betaMem) removeWhere(id uint64, equal func(*Token) bool) (*Token, bool) {
	if !bm.pos.Ready() {
		for i, t := range bm.tokens {
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
		t := bm.tokens[p]
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

// swapRemove deletes tokens[i] by moving the last token into the hole
// and updating that token's position entry.
func (bm *betaMem) swapRemove(i int) {
	last := len(bm.tokens) - 1
	if i != last {
		moved := bm.tokens[last]
		bm.tokens[i] = moved
		if bm.pos.Ready() {
			for e := bm.pos.Head(moved.id); e >= 0; e = bm.pos.Next(e) {
				if p := bm.pos.At(e); int(*p) == last {
					*p = int32(i)
					break
				}
			}
		}
	}
	bm.tokens[last] = nil
	bm.tokens = bm.tokens[:last]
}

// negRecord is a left token stored in a not-node with its count of
// matching right WMEs.
type negRecord struct {
	tok   *Token
	count int
}

// joinState is the serial state of one two-input node.
type joinState struct {
	// leftIdx/rightIdx are the opposite memories' indexes probed by
	// activations; nil (no equality test) means linear scan.
	leftIdx  *index[*Token]
	rightIdx *index[*ops5.WME]
	// leftScratch/rightScratch are this node's probe buffers, reused
	// across activations so bucket collection does not allocate. Safe
	// to reuse: the network is a DAG, so a node is never re-activated
	// while one of its own probes is still being iterated.
	leftScratch  []*Token
	rightScratch []*ops5.WME
	// A not-node holds its left tokens with match counts: in negRecords
	// when it has no equality key, by value in negIndex bucketed by join
	// key hash when it has (negCount tracks their number for StateSize).
	// Records are only added on this node's own left activation, which
	// never nests inside an iteration of the same node's chains
	// (propagation flows strictly downstream), so pointers into the
	// buckets taken during a walk stay valid.
	negRecords []*negRecord
	negIndex   Buckets[negRecord]
	negCount   int
	// prof accumulates the node's activation work for live hot-node
	// profiling.
	prof NodeProf
}

// negDelete unlinks the record for a token equal to tok under join-key
// hash k in the indexed not-node state, returning its match count.
func (j *joinState) negDelete(k uint64, tok *Token) (count int, found bool) {
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

// liveInst pairs a live token with its cached instantiation.
type liveInst struct {
	tok  *Token
	inst *ops5.Instantiation
}

// liveTake removes and returns the cached instantiation for tok, or nil
// when none is cached.
func liveTake(live *Buckets[liveInst], tok *Token) *ops5.Instantiation {
	prev := int32(-1)
	for i := live.Head(tok.id); i >= 0; prev, i = i, live.Next(i) {
		if e := live.At(i); e.tok.EqualTo(tok) {
			inst := e.inst
			live.Unlink(tok.id, prev, i)
			return inst
		}
	}
	return nil
}

// Network is the serial executor of a Plan: the plan's memories held
// unsynchronised, driven one WM change at a time on the caller's
// goroutine. Any number of Networks may run one Plan.
type Network struct {
	*Plan
	alphas []alphaMem // by AlphaNode.Index
	betas  []betaMem  // by BetaNode.Index
	joins  []joinState
	// live caches, per terminal, the instantiation of each token
	// currently in the conflict set, keyed by token identity hash (chains
	// re-verified with EqualTo), so removals don't rebuild them.
	live []Buckets[liveInst]

	// OnInsert and OnRemove receive conflict-set deltas. They must be
	// set before Apply.
	OnInsert func(*ops5.Instantiation)
	OnRemove func(*ops5.Instantiation)

	// Tracer, when non-nil, receives one event per node activation.
	Tracer TraceFunc

	// Stats accumulates match statistics across Apply calls.
	Stats Stats

	// compiled selects the plan's closure-specialised tests over
	// per-test switch dispatch (see EnableCompiledDispatch).
	compiled bool
	seq      int64
}

// Compile builds a plan for the productions and a network to run it.
func Compile(prods []*ops5.Production) (*Network, error) {
	p, err := CompilePlan(prods)
	if err != nil {
		return nil, err
	}
	return NewNetwork(p), nil
}

// NewNetwork returns a network with empty memories over the plan.
func NewNetwork(p *Plan) *Network {
	n := &Network{
		Plan:   p,
		alphas: make([]alphaMem, len(p.Alphas)),
		betas:  make([]betaMem, len(p.Betas)),
		joins:  make([]joinState, len(p.Joins)),
		live:   make([]Buckets[liveInst], len(p.Terminals)),
	}
	n.betas[0].insert(&Token{}) // the dummy top's permanent empty token
	for _, a := range p.Alphas {
		n.alphas[a.Index].indexes = newIndexes(a.Keys)
	}
	for _, b := range p.Betas {
		n.betas[b.Index].indexes = newIndexes(b.Keys)
	}
	for _, j := range p.Joins {
		if j.LeftKey >= 0 {
			n.joins[j.Index].leftIdx = &n.betas[j.Left.Index].indexes[j.LeftKey]
			n.joins[j.Index].rightIdx = &n.alphas[j.Right.Index].indexes[j.RightKey]
		}
	}
	return n
}

// newIndexes returns one empty index per key hash of a memory.
func newIndexes[E comparable](keys []func(E) uint64) []index[E] {
	indexes := make([]index[E], len(keys))
	for i, hash := range keys {
		indexes[i].hash = hash
	}
	return indexes
}
