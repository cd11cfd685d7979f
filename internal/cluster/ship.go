package cluster

import (
	"bytes"
	"context"
	"sync/atomic"
	"time"
)

// shipFrame is one framed WAL record queued for shipping.
type shipFrame struct {
	seq  int64
	data []byte
}

// shipQueueDepth bounds each session's ship queue. The tee never
// blocks the engine: a full queue drops the frame and flips overflow,
// and the shipper falls back to a snapshot resync.
const shipQueueDepth = 256

// shipper streams one owned session's WAL to its follower replicas.
// The durable log's onRecord tee enqueues frames (non-blocking, from
// the session's shard goroutine); a dedicated goroutine drains the
// queue and pushes records — or, after any loss or divergence, a full
// snapshot — to each follower, tracking per-follower positions.
type shipper struct {
	n  *Node
	id string

	ch       chan shipFrame
	overflow atomic.Bool
	lastSeq  atomic.Int64 // owner WAL position (for the lag gauge)
	minAck   atomic.Int64 // slowest follower position, -1 = no followers
	stop     chan struct{}
	done     chan struct{}

	// links is the per-follower ship state, owned by the run goroutine.
	links map[string]*shipLink
}

// shipLink is the shipper's view of one follower.
type shipLink struct {
	seq      int64 // follower's acked WAL position
	needs    bool  // follower needs a snapshot resync
	cooldown int   // ticks to skip after a failure (backoff)
}

// failCooldown is how many ship rounds a failed link sits out.
const failCooldown = 4

func newShipper(n *Node, id string, seq int64) *shipper {
	sp := &shipper{
		n:     n,
		id:    id,
		ch:    make(chan shipFrame, shipQueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		links: make(map[string]*shipLink),
	}
	sp.lastSeq.Store(seq)
	// Nothing is confirmed on any follower yet, so lag must read as the
	// full WAL distance, not zero — a caller waiting for lag 0 before a
	// destructive action (tests kill owners; operators reboot them)
	// would otherwise race the very first ship round.
	sp.minAck.Store(0)
	return sp
}

// enqueue is the durable log's onRecord tee. It runs under the log's
// mutex on the session's shard goroutine, so it must never block: when
// the queue is full the frame is dropped and the shipper resyncs every
// follower from a snapshot instead.
func (sp *shipper) enqueue(seq int64, frame []byte) {
	sp.lastSeq.Store(seq)
	select {
	case sp.ch <- shipFrame{seq, frame}:
	default:
		sp.overflow.Store(true)
	}
}

// lag is the slowest follower's distance behind the owner. Before the
// first round completes minAck is 0, so lag reports the whole WAL as
// unconfirmed; once a round has run with no followers configured,
// minAck is -1 and lag is 0.
func (sp *shipper) lag() int64 {
	ack := sp.minAck.Load()
	if ack < 0 {
		return 0
	}
	if d := sp.lastSeq.Load() - ack; d > 0 {
		return d
	}
	return 0
}

// run drains the queue and ships. A ticker round with an empty batch
// retries failed links and attaches followers the ring added.
func (sp *shipper) run() {
	defer close(sp.done)
	t := time.NewTicker(sp.n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-sp.stop:
			return
		case f := <-sp.ch:
			sp.ship(sp.drain([]shipFrame{f}))
		case <-t.C:
			sp.ship(sp.drain(nil))
		}
	}
}

// drain empties the queue without blocking.
func (sp *shipper) drain(batch []shipFrame) []shipFrame {
	for {
		select {
		case f := <-sp.ch:
			batch = append(batch, f)
		default:
			return batch
		}
	}
}

// ship pushes batch (and any owed catch-up) to every current follower.
func (sp *shipper) ship(batch []shipFrame) {
	followers := sp.n.followersFor(sp.id)
	// Reconcile links with the ring's current follower set.
	seen := make(map[string]bool, len(followers))
	for _, p := range followers {
		seen[p.id] = true
		if sp.links[p.id] == nil {
			sp.links[p.id] = &shipLink{needs: true}
		}
	}
	for id := range sp.links {
		if !seen[id] {
			delete(sp.links, id)
		}
	}
	if sp.overflow.Swap(false) {
		// A frame was dropped: incremental shipping has a hole for
		// every follower.
		for _, l := range sp.links {
			l.needs = true
		}
	}

	// The snapshot export is shared across followers needing a resync
	// this round; exported lazily since most rounds need none.
	var exp *exportedState
	for _, p := range followers {
		l := sp.links[p.id]
		if l.cooldown > 0 {
			l.cooldown--
			continue
		}
		if l.needs {
			if exp == nil {
				var err error
				if exp, err = sp.export(); err != nil {
					sp.n.shipErrors.Inc()
					l.cooldown = failCooldown
					continue
				}
			}
			seq, err := sp.n.pushSnapshot(p, sp.id, exp.manifest, exp.snap)
			if err != nil {
				sp.n.shipErrors.Inc()
				sp.n.logger.Warn("replica snapshot push failed",
					"session", sp.id, "peer", p.id, "err", err)
				l.cooldown = failCooldown
				continue
			}
			l.seq, l.needs = seq, false
			sp.n.shipBytes.Add(int64(len(exp.manifest) + len(exp.snap)))
		}
		// Incremental records: every queued frame past the follower's
		// acked position. The standby sorts them into covered, next
		// and gap; a gap answers 409 and the follower resyncs.
		var body bytes.Buffer
		count := 0
		for _, f := range batch {
			if f.seq > l.seq {
				body.Write(f.data)
				count++
			}
		}
		if count == 0 {
			continue
		}
		seq, err := sp.n.pushRecords(p, sp.id, body.Bytes())
		switch {
		case isGap(err):
			l.needs = true
		case err != nil:
			sp.n.shipErrors.Inc()
			sp.n.logger.Warn("replica record push failed",
				"session", sp.id, "peer", p.id, "err", err)
			l.needs = true // unknown what landed; resync
			l.cooldown = failCooldown
		default:
			l.seq = seq
			sp.n.shipRecords.Add(int64(count))
			sp.n.shipBytes.Add(int64(body.Len()))
		}
	}

	// Publish the slowest follower position for the lag gauge.
	if len(sp.links) == 0 {
		sp.minAck.Store(-1)
		return
	}
	min := int64(-1)
	for _, l := range sp.links {
		if l.needs {
			min = 0 // a resyncing follower is arbitrarily far behind
			break
		}
		if min < 0 || l.seq < min {
			min = l.seq
		}
	}
	sp.minAck.Store(min)
}

// exportedState is one session snapshot export, shared by every
// follower resyncing in the same round.
type exportedState struct{ manifest, snap []byte }

// export snapshots the session inline on its shard. The dispatch fails
// fast if the shard is busy — the shipper retries next round rather
// than ever blocking behind the engine.
func (sp *shipper) export() (*exportedState, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	manifest, snap, err := sp.n.srv.ExportDurable(ctx, sp.id)
	if err != nil {
		return nil, err
	}
	return &exportedState{manifest, snap}, nil
}
