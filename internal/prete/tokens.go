package prete

// This file holds the matcher's tokens and recycles them. A token is
// built once for one place: a join builds one for each left memory below
// it (or one leaf, which only terminals read), and a not-node one copy
// of its left token for each left memory below it. So a token is filed
// in at most one left entry, and it carries the links of the tree its
// builds form (Doorenbos's tree-based removal): it lists the tokens
// built on it (kids), and the right entry of the WME it was built with
// lists it (rightEntry.toks). A delete walks those lists instead of
// searching its memories for what its insert built, and tests nothing.
//
// Both lists of a token are written under one stripe lock: the lock of
// the stripe its parent's entry and its WME's right entry share (they
// joined, so they share a join key), which its insert and its delete
// from either side both take. Its place in its own left memory (slot) is
// written under that memory's stripe lock, which its insert and its
// delete take there.
//
// A token is retired on the lane that removes it: a leaf when its delete
// is emitted, a filed token when its delete reaches its memory, or, if
// the delete got there first (another lane's), when its insert does. A
// pending conflict-set delta may still read it, so a retired token is
// reused only after the batch's flush: at the barrier every lane's
// retired and unused tokens go back to one matcher-wide pool, and a lane
// refills its own cache from that pool a chunk at a time. Tokens
// therefore cannot pile up on a lane that retires many and builds few;
// the pool holds at most the high-water mark of live tokens. A lane
// that finds the pool empty builds a fresh token from its own slab,
// whose chunks the matcher keeps as long as it lives.

import (
	"sync"

	"repro/internal/ops5"
	"repro/internal/rete"
)

// token is a rete.Token with its place in the matcher: where it is
// filed, who built it, and the links of the build tree.
type token struct {
	rete.Token
	// kids is the first token built on this one; next and pprev chain
	// one parent's kids, pprev pointing at the link that points here (the
	// parent's kids or the previous kid's next; nil when the token is in
	// no such list).
	kids, next *token
	pprev      **token
	// rnext and rprev chain the tokens built with one right entry's WME:
	// entry ridx of node.right[rsi] (ridx -1: a not-node's copy, built
	// with no WME).
	rnext, rprev *token
	// node built the token for its down-th left memory (-1: a leaf), in
	// which it is filed under key.
	node *pnode
	key  uint64
	ridx int32
	down int32
	// slot is the token's entry index + 1 in its memory's stripe table:
	// 0 before its insert reaches the memory, -1 while a delete that got
	// there first waits for it.
	slot int32
	rsi  uint8
	// announce: the token reports its pair to node's terminals.
	announce bool
}

// poolChunk is how many tokens a lane takes from the pool at a time.
const poolChunk = 32

// tokenPool is a matcher's free tokens, shared by its lanes.
type tokenPool struct {
	mu   sync.Mutex
	toks []*token
}

// token returns a token no memory holds for lane w to build into for an
// activation in direction dir: from the lane's cache, refilled from the
// pool, or fresh from the lane's slab.
// Once a refill finds the pool empty the lane stops asking until the
// next barrier, for nothing returns to the pool before it.
func (w *worker) token(dir ops5.ChangeKind) *token {
	w.work.Built[dir]++
	if len(w.cache) == 0 && !w.dry {
		p := w.pool
		p.mu.Lock()
		k := max(0, len(p.toks)-poolChunk)
		w.cache = append(w.cache, p.toks[k:]...)
		clear(p.toks[k:])
		p.toks = p.toks[:k]
		p.mu.Unlock()
		w.dry = len(w.cache) == 0
	}
	k := len(w.cache) - 1
	if k < 0 {
		return w.slab.New()
	}
	t := w.cache[k]
	w.cache = w.cache[:k]
	return t
}

// retire hands t, which nothing holds any more, to the lane's retired
// list in an activation in direction dir.
func (w *worker) retire(t *token, dir ops5.ChangeKind) {
	w.work.Freed[dir]++
	w.retired = append(w.retired, t)
}

// reclaim returns every lane's retired and unused tokens to the pool,
// the retired ones with their WME slots cleared. Apply calls it after
// the barrier and the flush, the last readers of a retired token.
func (p *tokenPool) reclaim(workers []worker) {
	p.mu.Lock()
	for i := range workers {
		w := &workers[i]
		for _, t := range w.retired {
			t.Recycle()
			p.toks = append(p.toks, t)
		}
		p.toks = append(p.toks, w.cache...)
		clear(w.retired)
		clear(w.cache)
		w.retired, w.cache, w.dry = w.retired[:0], w.cache[:0], false
	}
	p.mu.Unlock()
}
