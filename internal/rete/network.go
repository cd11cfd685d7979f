package rete

import (
	"fmt"
	"strings"

	"repro/internal/bucket"
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

// memory is the serial contents of one alpha memory (E a WME) or beta
// memory (E a token): the entries in a slice whose order carries no
// meaning, a table from each entry's identity hash — a WME's time tag, a
// token's IDHash — to its slice position, so removal never scans, and
// one equality-join hash index per key of the plan's AlphaNode/BetaNode.
// Identity hashes may collide; a removal re-verifies the chain with the
// caller's equality.
type memory[E comparable] struct {
	items   []E
	pos     bucket.Buckets[int32]
	indexes []index[E]
}

// wmeID is a WME's identity hash in an alpha memory.
func wmeID(w *ops5.WME) uint64 { return uint64(w.TimeTag) }

// insert appends x, filed under identity hash id.
func (m *memory[E]) insert(id uint64, x E) {
	m.pos.Add(id, int32(len(m.items)))
	m.items = append(m.items, x)
}

// remove deletes and returns the entry filed under id that satisfies
// equal. The last entry is swapped into the hole; idOf (the identity
// hash insert was given for it) finds its position record.
func (m *memory[E]) remove(id uint64, equal func(E) bool, idOf func(E) uint64) (x E, ok bool) {
	prev := int32(-1)
	for e := m.pos.Head(id); e >= 0; prev, e = e, m.pos.Next(e) {
		p := *m.pos.At(e)
		if x = m.items[p]; !equal(x) {
			continue
		}
		m.pos.Unlink(id, prev, e)
		last := int32(len(m.items) - 1)
		if p != last {
			moved := m.items[last]
			m.items[p] = moved
			for e := m.pos.Head(idOf(moved)); e >= 0; e = m.pos.Next(e) {
				if at := m.pos.At(e); *at == last {
					*at = p
					break
				}
			}
		}
		var zero E
		m.items[last] = zero
		m.items = m.items[:last]
		return x, true
	}
	var zero E
	return zero, false
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
	negIndex   bucket.Buckets[negRecord]
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
func liveTake(live *bucket.Buckets[liveInst], tok *Token) *ops5.Instantiation {
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
	alphas []memory[*ops5.WME] // by AlphaNode.Index
	betas  []memory[*Token]    // by BetaNode.Index
	joins  []joinState
	// live caches, per terminal, the instantiation of each token
	// currently in the conflict set, keyed by token identity hash (chains
	// re-verified with EqualTo), so removals don't rebuild them.
	live []bucket.Buckets[liveInst]

	// OnInsert and OnRemove receive conflict-set deltas. They must be
	// set before Apply.
	OnInsert func(*ops5.Instantiation)
	OnRemove func(*ops5.Instantiation)

	// Tracer, when non-nil, receives one event per node activation.
	Tracer TraceFunc

	// Stats accumulates match statistics across Apply calls.
	Stats Stats

	seq int64
	ctx applyCtx // Apply's per-change bookkeeping, reused
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
		alphas: make([]memory[*ops5.WME], len(p.Alphas)),
		betas:  make([]memory[*Token], len(p.Betas)),
		joins:  make([]joinState, len(p.Joins)),
		live:   make([]bucket.Buckets[liveInst], len(p.Terminals)),
		ctx:    applyCtx{credits: make([]int32, len(p.Productions))},
	}
	n.betas[0].insert(0, &Token{}) // the dummy top's permanent empty token
	for _, a := range p.Alphas {
		n.alphas[a.Index].indexes = make([]index[*ops5.WME], len(a.Keys))
	}
	for _, b := range p.Betas {
		n.betas[b.Index].indexes = make([]index[*Token], len(b.Keys))
	}
	for _, j := range p.Joins {
		if j.LeftKey >= 0 {
			n.joins[j.Index].leftIdx = &n.betas[j.Left.Index].indexes[j.LeftKey]
			n.joins[j.Index].rightIdx = &n.alphas[j.Right.Index].indexes[j.RightKey]
		}
	}
	return n
}
