package prete

// This file recycles tokens. A token a join builds is stored by every
// left memory below the join, and lanes reach those memories out of
// order, so no one memory owns it: the token counts its holders instead
// (rete.Token.Hold/Release). Every left entry holding the token holds
// one reference, and so does every token-form emit on its way to a left
// memory — the emitting activation takes one for each group below it
// before any of them can see the token. updateLeft releases the incoming
// token's reference when it does not file that token in a new entry, and
// runLeft the stored token's when it unlinks an entry, once the
// activation's own emits are on their way.
//
// A token whose last reference goes is retired on the releasing lane. A
// pair-form emit or a pending conflict-set delta may still read it, so a
// retired token is reused only after the batch's flush: at the barrier
// every lane's retired and unused tokens go back to one matcher-wide
// pool, and a lane refills its own cache from that pool a chunk at a
// time. Tokens therefore cannot pile up on a lane that retires many and
// builds few; the pool holds at most the high-water mark of live tokens.
// A lane that finds the pool empty builds a fresh token from its own
// rete.TokenSlab, whose chunks the matcher keeps as long as it lives.

import (
	"sync"

	"repro/internal/rete"
)

// poolChunk is how many tokens a lane takes from the pool at a time.
const poolChunk = 32

// tokenPool is a matcher's free tokens, shared by its lanes.
type tokenPool struct {
	mu   sync.Mutex
	toks []*rete.Token
}

// token returns a token no memory holds, with no reference, for lane w
// to build into: from the lane's cache, refilled from the pool, or fresh
// from the lane's slab.
// Once a refill finds the pool empty the lane stops asking until the
// next barrier, for nothing returns to the pool before it.
func (w *worker) token() *rete.Token {
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

// release drops one reference to t, retiring t when it was the last.
func (w *worker) release(t *rete.Token) {
	if t.Release() {
		w.retired = append(w.retired, t)
	}
}

// reclaim returns every lane's retired and unused tokens to the pool,
// the retired ones with their WME slots cleared. Apply calls it after
// the barrier and the flush, the last readers of a retired token.
func (p *tokenPool) reclaim(workers []worker) {
	p.mu.Lock()
	for i := range workers {
		w := &workers[i]
		for _, t := range w.retired {
			p.toks = append(p.toks, t.Recycle())
		}
		p.toks = append(p.toks, w.cache...)
		clear(w.retired)
		clear(w.cache)
		w.retired, w.cache, w.dry = w.retired[:0], w.cache[:0], false
	}
	p.mu.Unlock()
}
