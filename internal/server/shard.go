package server

import (
	"fmt"
	"sync/atomic"
)

// shard owns a disjoint subset of the server's sessions and one turn. A
// caller runs a session operation on its own goroutine, and only while
// it holds its shard's turn, so exactly one goroutine at a time touches
// a shard's sessions and they need no locking — the serving analogue of
// the paper's one-owner-per-memory discipline, with fine-grain
// parallelism living below this level inside the parallel matcher. The
// turn is a channel of capacity one: each holder's release happens
// before the next holder's acquire, which orders their session writes.
type shard struct {
	id   int
	turn chan struct{}
	// waiting counts admitted callers that do not hold the turn yet;
	// dispatchShard bounds it by Config.QueueDepth.
	waiting atomic.Int64
	// sessions is touched only by the turn holder (and by Server.close
	// once every dispatch has returned).
	sessions map[string]*session
}

func newShard(id int) *shard {
	return &shard{
		id:       id,
		turn:     make(chan struct{}, 1),
		sessions: make(map[string]*session),
	}
}

// get resolves a session for the turn holder.
func (sh *shard) get(id string) (*session, error) {
	s, ok := sh.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	s.requests++
	return s, nil
}
