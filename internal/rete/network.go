package rete

import (
	"fmt"
	"strings"

	"repro/internal/bucket"
	"repro/internal/ops5"
)

// Token is a sequence of WMEs matching the positive condition elements
// processed so far, in LHS order. A token is immutable while any memory
// holds it; a matcher recycles it only once none does, by building the
// next join output into it (ExtendInto). Short tokens (the overwhelmingly
// common case) store their WMEs in the inline arr, so such a token is
// its 72 bytes and nothing more, carved out of a slab's chunks (the
// serial network's TokenSlab; internal/prete embeds the Token in its
// own token); a recycled one keeps whatever storage it grew.
type Token struct {
	WMEs []*ops5.WME
	arr  [5]*ops5.WME
	// id is the identity hash: the WMEs' time tags folded in order, the
	// parent's id extended by one tag at ExtendInto, so no lookup ever
	// walks the tag list again. The zero Token is the empty token.
	id uint64
}

// ExtendInto builds t with w appended into *dst, in dst's own storage:
// a fresh token from a TokenSlab, a recycled one or a scratch one; with
// w nil, a copy of t. dst must not be t. A token longer than arr gets a
// WME buffer of its own and leaves arr clear, so Recycle clears every
// WME it holds.
func (t *Token) ExtendInto(dst *Token, w *ops5.WME) {
	n := len(t.WMEs)
	if w != nil {
		n++
	}
	buf := dst.WMEs[:0]
	if cap(buf) < n {
		if n <= len(dst.arr) {
			buf = dst.arr[:0]
		} else {
			buf = make([]*ops5.WME, 0, n)
		}
	}
	dst.WMEs = append(buf, t.WMEs...)
	dst.id = t.id
	if w != nil {
		dst.WMEs = append(dst.WMEs, w)
		dst.id = hashTag(t.id, w.TimeTag)
	}
}

// TokenSlab hands out fresh tokens carved from chunks (ops5.Slab's
// policy: 16 tokens first, doubling to 256, 20 KB). A chunk lives as
// long as its executor does; the executor's tokens go back to its free
// list or pool, never to the slab, so they number its live high-water
// mark plus the rest of one chunk per slab. The zero TokenSlab is ready
// to use.
type TokenSlab = ops5.Slab[Token]

// Recycle clears the token's WME slots, keeping their storage, so that a
// free list holds no WME alive.
func (t *Token) Recycle() *Token {
	clear(t.WMEs)
	t.WMEs = t.WMEs[:0]
	return t
}

// ExtIDHash returns the identity hash of t extended by w, without
// building that token; t's own when w is nil.
func (t *Token) ExtIDHash(w *ops5.WME) uint64 {
	if w == nil {
		return t.id
	}
	return hashTag(t.id, w.TimeTag)
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

// ExtEqual reports whether t equals base extended by w, base itself when
// w is nil.
func ExtEqual(t, base *Token, w *ops5.WME) bool {
	if w == nil {
		return t.EqualTo(base)
	}
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
	// A not-node holds its left tokens with match counts by value in
	// negIndex, bucketed by join key hash when the node has an equality
	// key and by token identity hash when it has none (negCount tracks
	// their number for StateSize). Records are only added on this node's
	// own left activation, which never nests inside an iteration of the
	// same node's chains (propagation flows strictly downstream), so
	// pointers into the buckets taken during a walk stay valid.
	negIndex bucket.Buckets[negRecord]
	negCount int
}

// negKey is the negIndex key of the left token in m: its join-key hash
// at a keyed not-node, its identity hash at an unkeyed one.
func (j *JoinNode) negKey(m *keyMemo[*Token]) uint64 {
	if j.LeftHash != nil {
		return m.key(j.LeftKey)
	}
	return m.x.IDHash()
}

// negDelete unlinks the record for a token equal to tok under key k in
// the not-node state, returning its match count.
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

// Network is the serial executor of a Plan: the plan's memories held
// unsynchronised, driven one WM change at a time on the caller's
// goroutine. Any number of Networks may run one Plan.
type Network struct {
	*Plan
	alphas []memory[*ops5.WME] // by AlphaNode.Index
	betas  []memory[*Token]    // by BetaNode.Index
	joins  []joinState
	// match is terminalActivate's scratch for the matched WMEs.
	match []*ops5.WME
	// free holds the tokens that left the memories owning them, for the
	// next join output to be built into (extend); slab builds a token
	// when free is empty.
	free []*Token
	slab TokenSlab

	// Sink receives the conflict-set deltas. It starts as the embedded
	// Hooks, whose OnInsert and OnRemove receive them as instantiations.
	// Set either before Apply.
	Sink ops5.MatchSink
	ops5.Hooks

	// Tracer, when non-nil, receives one event per node activation.
	Tracer TraceFunc

	// Stats accumulates match statistics across Apply calls.
	Stats Stats

	seq int64
	// change and dir are the WM change in flight: its position in the
	// Apply batch and its kind.
	change int
	dir    ops5.ChangeKind
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
	}
	n.Sink = &n.Hooks
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
