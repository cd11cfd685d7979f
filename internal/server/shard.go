package server

import "sync/atomic"

// shard is one turn over a disjoint subset of the server's sessions
// (those hashed to it; Server.index holds them all). A caller runs a
// session operation on its own goroutine, and only while it holds its
// shard's turn, so exactly one goroutine at a time touches a shard's
// sessions and they need no locking — the serving analogue of the
// paper's one-owner-per-memory discipline, with fine-grain parallelism
// living below this level inside the parallel matcher. The turn is a
// channel of capacity one: each holder's release happens before the
// next holder's acquire, which orders their session writes.
type shard struct {
	id   int
	turn chan struct{}
	// waiting counts admitted callers that do not hold the turn yet;
	// dispatchShard bounds it by Config.QueueDepth.
	waiting atomic.Int64
}
