package cluster

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/server/stats"
)

// Config wires one node into the cluster.
type Config struct {
	// Self is this node's ID (must appear in Peers).
	Self string
	// Peers maps every cluster node ID to its base URL (the -peers
	// flag, parsed). Self's entry is ignored for dialing.
	Peers map[string]string
	// Replicas is the total copies per session, owner included
	// (default 2: one owner, one follower).
	Replicas int
	// Forward proxies misrouted requests to the owner instead of
	// answering 307 (the -forward flag).
	Forward bool
	// Heartbeat is the ping/reconcile period (default 1s). A peer
	// silent for 4 heartbeats is suspect, for 10 dead: dead peers leave
	// the ring and their sessions fail over.
	Heartbeat time.Duration
	// Client performs intra-cluster HTTP (default: 5s timeout).
	Client *http.Client
	// Version is the build version reported on /v1/cluster/status.
	Version string
}

// Node is the cluster runtime bound to one server: membership and
// heartbeats, WAL shippers for owned sessions, standby replicas for
// peers' sessions, and the reconcile loop that moves ownership. It is
// the server's Replicator: it places session requests and serves the
// cluster's routes from the server's route table (handler.go).
type Node struct {
	cfg    Config
	srv    *server.Server
	mem    *membership
	client *http.Client
	logger *slog.Logger

	mu       sync.Mutex
	shippers map[string]*shipper
	standbys map[string]*durable.Standby

	stop     chan struct{}
	loopDone chan struct{}
	shipWG   sync.WaitGroup
	draining atomic.Bool
	// createSeq numbers the session IDs this node generates for create
	// requests that did not pick one; the node ID prefix keeps them
	// collision-free across the cluster.
	createSeq atomic.Int64

	shipRecords *stats.Counter
	shipBytes   *stats.Counter
	shipErrors  *stats.Counter
	failovers   *stats.Counter
	handoffs    *stats.Counter
	standbyG    *stats.Gauge
}

// New validates the config and builds the node. Pass the node as
// server.Config.Replicator, build the server, then call Start. A server
// with a Replicator recovers no session itself: Start reopens every
// durable copy on disk as a standby.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: -node is required")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: -peers must include this node %q", cfg.Self)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Peers) {
		cfg.Replicas = len(cfg.Peers)
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	return &Node{
		cfg:      cfg,
		mem:      newMembership(cfg.Self, cfg.Peers, 4*cfg.Heartbeat, 10*cfg.Heartbeat, time.Now()),
		client:   cfg.Client,
		shippers: make(map[string]*shipper),
		standbys: make(map[string]*durable.Standby),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}, nil
}

// Start binds the node to its server, registers cluster metrics,
// reopens the durable copies on disk as standbys, and starts the
// heartbeat/reconcile loop.
func (n *Node) Start(srv *server.Server) error {
	if srv.DataDir() == "" {
		return fmt.Errorf("cluster: cluster mode requires -data-dir (WAL shipping replicates durable state)")
	}
	n.srv = srv
	n.logger = srv.Logger()
	r := srv.Registry()
	n.shipRecords = r.Counter("psmd_ship_records_total", "WAL records shipped to follower replicas")
	n.shipBytes = r.Counter("psmd_ship_bytes_total", "bytes shipped to follower replicas (records and snapshots)")
	n.shipErrors = r.Counter("psmd_ship_errors_total", "failed replica pushes")
	n.failovers = r.Counter("psmd_failovers_total", "standby replicas promoted after owner death")
	n.handoffs = r.Counter("psmd_handoffs_total", "sessions handed off to their preferred owner")
	n.standbyG = r.Gauge("psmd_standby_sessions", "standby replicas held for peers' sessions")
	r.GaugeFunc("psmd_replication_lag_records",
		"largest per-session WAL distance between owner and slowest follower",
		func() float64 { return float64(n.maxLag()) })
	for _, st := range []PeerState{StateAlive, StateSuspect, StateDead} {
		st := st
		r.GaugeFunc(fmt.Sprintf("psmd_cluster_peers{state=%q}", st.String()),
			"peers by heartbeat-derived state",
			func() float64 { return float64(n.countPeers(st)) })
	}

	if err := n.reopenStandbys(); err != nil {
		return err
	}
	go n.loop()
	n.logger.Info("cluster node started",
		"node", n.cfg.Self, "peers", len(n.cfg.Peers)-1,
		"replicas", n.cfg.Replicas, "heartbeat", n.cfg.Heartbeat)
	return nil
}

// Stop halts the heartbeat loop and every shipper, then closes
// standbys. It does not touch live sessions — the server's own
// Close/Abort handles those. Call it once, after Start.
func (n *Node) Stop() {
	close(n.stop)
	<-n.loopDone
	n.mu.Lock()
	for id, sp := range n.shippers {
		close(sp.stop)
		delete(n.shippers, id)
	}
	standbys := n.standbys
	n.standbys = make(map[string]*durable.Standby)
	n.mu.Unlock()
	n.shipWG.Wait()
	for _, st := range standbys {
		st.Close()
	}
	n.standbyG.Set(0)
}

// replicaDir is where this node keeps its standby copy of a session:
// under dataDir/replica, beside the live directories the server names
// the same way.
func (n *Node) replicaDir(id string) string {
	return filepath.Join(n.srv.DataDir(), "replica", hex.EncodeToString([]byte(id)))
}

// intoReplicaArea moves a session's live durable directory to the path
// its standby lives at, replacing any copy there.
func (n *Node) intoReplicaArea(dir string) error {
	dst := filepath.Join(n.srv.DataDir(), "replica", filepath.Base(dir))
	if err := os.MkdirAll(filepath.Dir(dst), 0o777); err != nil {
		return err
	}
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.Rename(dir, dst); err != nil {
		return fmt.Errorf("cluster: move session into the replica area: %w", err)
	}
	return nil
}

// reopenStandbys reopens every durable copy an earlier run left on
// disk as a standby — the sessions it served too, whose directories
// move into the replica area first. A restarted node cannot know
// whether a peer promoted one of them while it was down, so it serves
// none: reconcile promotes a copy only once every peer has reported and
// none serves the session or holds a fresher copy. That is what keeps
// a rejoining owner from overwriting what its successor acknowledged.
func (n *Node) reopenStandbys() error {
	live, err := durable.SessionDirs(n.srv.DataDir())
	if err != nil {
		return err
	}
	for _, dir := range live {
		if err := n.intoReplicaArea(dir); err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(filepath.Join(n.srv.DataDir(), "replica"))
	if os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	for _, e := range entries {
		raw, err := hex.DecodeString(e.Name())
		if !e.IsDir() || err != nil {
			n.logger.Warn("skipping unrecognised replica dir", "dir", e.Name())
			continue
		}
		id := string(raw)
		st, err := n.putStandby(id)
		if err != nil {
			n.logger.Warn("reopening standby failed", "session", id, "err", err)
			continue
		}
		n.logger.Info("standby reopened", "session", id, "seq", st.Seq())
	}
	return nil
}

// putStandby opens the session's replica directory as its standby and
// registers it, unless one is registered already; it returns the
// registered standby.
func (n *Node) putStandby(id string) (*durable.Standby, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st := n.standbys[id]; st != nil {
		return st, nil
	}
	st, err := durable.OpenStandby(n.replicaDir(id))
	if err != nil {
		return nil, err
	}
	n.standbys[id] = st
	n.standbyG.Set(int64(len(n.standbys)))
	return st, nil
}

// takeStandby unregisters a session's standby and returns it (nil if
// there is none).
func (n *Node) takeStandby(id string) *durable.Standby {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.standbys[id]
	delete(n.standbys, id)
	n.standbyG.Set(int64(len(n.standbys)))
	return st
}

// standby returns a session's standby (nil if there is none).
func (n *Node) standby(id string) *durable.Standby {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.standbys[id]
}

// SessionUp implements server.Replicator: a durable session became
// live here, so it needs a shipper. Runs under the session's shard turn
// and never blocks; once Stop has begun it starts nothing.
func (n *Node) SessionUp(id string, log *durable.Log) {
	seq, _, _, _ := log.Stats()
	sp := newShipper(n, id, seq)
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.stop:
		return
	default:
	}
	log.SetOnRecord(sp.enqueue)
	if old := n.shippers[id]; old != nil {
		close(old.stop)
	}
	n.shippers[id] = sp
	n.shipWG.Add(1)
	go func() { defer n.shipWG.Done(); sp.run() }()
}

// SessionDown implements server.Replicator: the session stopped being
// live here. Runs under the session's shard turn — it signals the
// shipper and returns without waiting (the shipper's export dispatch
// may be waiting for the turn this very call holds). On API deletion the follower replicas are
// torn down too, asynchronously.
func (n *Node) SessionDown(id string, deleted bool) {
	n.mu.Lock()
	sp := n.shippers[id]
	delete(n.shippers, id)
	n.mu.Unlock()
	if sp != nil {
		close(sp.stop)
	}
	if deleted {
		followers := n.followersFor(id)
		go func() {
			for _, p := range followers {
				if err := n.deleteReplica(p, id); err != nil {
					n.logger.Warn("replica delete failed", "session", id, "peer", p.id, "err", err)
				}
			}
		}()
	}
}

// ring builds placement from the current health view.
func (n *Node) ring(now time.Time) *Ring {
	return NewRing(n.mem.ringMembers(now))
}

// followersFor returns the non-dead peers that should hold replicas of
// a session this node owns: the ring's preference list after self,
// truncated to Replicas−1 copies, plus every other peer that reports a
// standby of it. A copy the ring moved away from (its holder was down
// a while) keeps being shipped to rather than falling behind for good.
func (n *Node) followersFor(id string) []*peer {
	now := time.Now()
	var out []*peer
	for _, nodeID := range n.ring(now).Prefer(id, n.cfg.Replicas) {
		if p := n.mem.peers[nodeID]; p != nil && n.mem.state(p, now) != StateDead && len(out) < n.cfg.Replicas-1 {
			out = append(out, p)
		}
	}
	n.mem.reports(id, now, func(p *peer, rep sessionReport) {
		if !rep.Live && !slices.Contains(out, p) {
			out = append(out, p)
		}
	})
	return out
}

// maxLag is the worst per-session replication lag (the gauge).
func (n *Node) maxLag() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var max int64
	for _, sp := range n.shippers {
		if l := sp.lag(); l > max {
			max = l
		}
	}
	return max
}

// countPeers counts peers in one state (the labelled peers gauge).
func (n *Node) countPeers(st PeerState) int {
	now := time.Now()
	c := 0
	for _, p := range n.mem.peers {
		if n.mem.state(p, now) == st {
			c++
		}
	}
	return c
}

// loop is the heartbeat/reconcile driver.
func (n *Node) loop() {
	defer close(n.loopDone)
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.pingAll()
			if !n.draining.Load() {
				n.reconcile(time.Now())
			}
		}
	}
}

// pingAll heartbeats every peer concurrently and waits for the round.
func (n *Node) pingAll() {
	var wg sync.WaitGroup
	for _, p := range n.mem.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			asked := time.Now()
			sessions, draining, err := n.ping(p)
			if err != nil {
				n.mem.markFailed(p.id, err)
				return
			}
			if sessions == nil {
				// An empty table is omitted on the wire; it is still
				// an authoritative report, unlike the nil that means
				// "liveness only" on the receive path.
				sessions = map[string]sessionReport{}
			}
			n.mem.markAlive(p.id, sessions, draining, asked)
		}(p)
	}
	wg.Wait()
}

// sessionsReport is this node's piggyback payload: every durable
// session it holds, live or standby, with its WAL position.
func (n *Node) sessionsReport() map[string]sessionReport {
	out := make(map[string]sessionReport)
	n.mu.Lock()
	for id, st := range n.standbys {
		out[id] = sessionReport{Seq: st.Seq()}
	}
	n.mu.Unlock()
	for id, seq := range n.srv.DurableSeqs() {
		out[id] = sessionReport{Seq: seq, Live: true}
	}
	return out
}

// reconcile converges local state with the ring: resolve duplicate
// owners, hand misplaced sessions to their preferred node, and promote
// standbys whose owner is gone.
func (n *Node) reconcile(now time.Time) {
	ring := n.ring(now)
	members := ring.Nodes()

	// Live sessions: am I the right owner, and the only one?
	for id, seq := range n.srv.DurableSeqs() {
		rank := ring.Prefer(id, len(members))
		if holder, hseq := n.liveClaim(id, now); holder != "" {
			// Someone else also serves this session — the split a
			// healed partition leaves. Newest state wins; a tie goes to
			// preference order — unless the holder is draining: a
			// drained process reports its inventory one last time and
			// exits, so its claim is stale the moment it hands the
			// session here, and losing the tie to it would strand the
			// session until the dead timer clears the ghost claim.
			stale := hseq > seq || (hseq == seq && !n.mem.peerDraining(holder) &&
				indexOf(rank, holder) < indexOf(rank, n.cfg.Self))
			if stale {
				n.logger.Warn("demoting stale duplicate session",
					"session", id, "local_seq", seq, "holder", holder, "holder_seq", hseq)
				if _, err := n.demoteToStandby(id); err != nil {
					n.logger.Error("demote failed", "session", id, "err", err)
				}
			}
			// We hold the freshest copy; the stale holder demotes when
			// its next heartbeat shows our sequence. Handing off now
			// would bounce off its 409 with our session parked as a
			// standby, so wait for the claim to clear.
			continue
		}
		if len(rank) > 0 && rank[0] != n.cfg.Self {
			if p := n.handoffTarget(rank[0], now); p != nil {
				if err := n.handoff(id, p); err != nil {
					n.logger.Warn("handoff failed", "session", id, "target", p.id, "err", err)
				}
			}
		}
	}

	// Standbys: promote when the owner is gone and this node holds the
	// freshest reachable copy (ties broken by preference order). A peer
	// we have never completed a heartbeat with might be serving anything
	// — promoting past it would split the brain at startup — so every
	// non-dead peer must have reported its session inventory first.
	if !n.mem.allReported(now) {
		return
	}
	n.mu.Lock()
	ids := make([]string, 0, len(n.standbys))
	seqs := make(map[string]int64, len(n.standbys))
	for id, st := range n.standbys {
		ids = append(ids, id)
		seqs[id] = st.Seq()
	}
	n.mu.Unlock()
	slices.Sort(ids)
	for _, id := range ids {
		if n.srv.HasSession(id) {
			continue // already live here; the shipper covers followers
		}
		if holder, _ := n.liveClaim(id, now); holder != "" {
			continue // an owner is serving it
		}
		rank := ring.Prefer(id, len(members))
		best, bestSeq := n.cfg.Self, seqs[id]
		n.mem.reports(id, now, func(p *peer, rep sessionReport) {
			if rep.Seq > bestSeq || (rep.Seq == bestSeq && indexOf(rank, p.id) < indexOf(rank, best)) {
				best, bestSeq = p.id, rep.Seq
			}
		})
		if best != n.cfg.Self {
			continue // a fresher (or better-placed equal) copy exists
		}
		n.logger.Warn("owner gone; promoting standby",
			"session", id, "seq", seqs[id])
		if err := n.promoteStandby(id); err != nil {
			n.logger.Error("promotion failed", "session", id, "err", err)
			continue
		}
		n.failovers.Inc()
	}
}

// liveClaim reports a non-dead peer currently claiming the session
// live, preferring the highest sequence ("" if none). Suspect peers
// count: their claim is stale by at most the dead timer, and honouring
// it prevents premature double-ownership.
func (n *Node) liveClaim(id string, now time.Time) (holder string, seq int64) {
	n.mem.reports(id, now, func(p *peer, rep sessionReport) {
		if rep.Live && (holder == "" || rep.Seq > seq) {
			holder, seq = p.id, rep.Seq
		}
	})
	return holder, seq
}

// alivePeer returns the peer if it is currently alive. Draining peers
// count: they keep serving until they exit.
func (n *Node) alivePeer(id string, now time.Time) *peer {
	p := n.mem.peers[id]
	if p == nil || n.mem.state(p, now) != StateAlive {
		return nil
	}
	return p
}

// handoffTarget returns the peer only if it can durably accept a
// session: alive and not draining. Handing a session to a draining
// peer would orphan it when that peer exits moments later.
func (n *Node) handoffTarget(id string, now time.Time) *peer {
	p := n.alivePeer(id, now)
	if p == nil || n.mem.peerDraining(id) {
		return nil
	}
	return p
}

// demoteToStandby takes a local live session out of service and keeps
// its state as a standby replica (the stale-duplicate and handoff
// path). The live durable directory moves into the replica area.
func (n *Node) demoteToStandby(id string) (*durable.Standby, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir, err := n.srv.Demote(ctx, id)
	if err != nil {
		return nil, err
	}
	if err := n.intoReplicaArea(dir); err != nil {
		return nil, err
	}
	return n.putStandby(id)
}

// handoff moves ownership of a local session to its preferred node:
// demote locally (final snapshot), keep the state as a standby, push
// the full state to the target, and ask it to promote.
func (n *Node) handoff(id string, target *peer) error {
	st, err := n.demoteToStandby(id)
	if err != nil {
		return err
	}
	manifest, snap, tail, err := st.Export()
	if err != nil {
		return err
	}
	if _, err := n.pushSnapshot(target, id, manifest, snap); err != nil {
		return fmt.Errorf("cluster: handoff %q: push snapshot: %w", id, err)
	}
	if len(tail) > 0 {
		if _, err := n.pushRecords(target, id, tail); err != nil {
			return fmt.Errorf("cluster: handoff %q: push tail: %w", id, err)
		}
	}
	seq, err := n.requestPromote(target, id)
	if err != nil {
		return fmt.Errorf("cluster: handoff %q: promote on %s: %w", id, target.id, err)
	}
	// The target's heartbeat still shows its old copy; without its claim
	// the standby loop of this very reconcile pass would promote ours
	// back and serve the session twice.
	n.mem.claim(target.id, id, seq)
	n.handoffs.Inc()
	n.logger.Info("session handed off", "session", id, "target", target.id)
	return nil
}

// promoteStandby turns a standby replica into the live session: close
// it, move the directory into the live data area, and adopt it through
// ordinary crash recovery. On failure the directory moves back and the
// standby reopens.
func (n *Node) promoteStandby(id string) error {
	st := n.takeStandby(id)
	if st == nil {
		return fmt.Errorf("cluster: no standby for session %q", id)
	}
	if err := st.Close(); err != nil {
		return err
	}
	liveDir := n.srv.SessionDir(id)
	err := os.Rename(st.Dir(), liveDir)
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err = n.srv.AdoptSession(ctx, id); err == nil {
			return nil
		}
		if os.Rename(liveDir, st.Dir()) != nil {
			return err
		}
	}
	if _, rerr := n.putStandby(id); rerr != nil {
		n.logger.Error("standby reopen after failed promotion", "session", id, "err", rerr)
	}
	return err
}

// Drain prepares this node for shutdown: stop taking new placement,
// then move every live session to a successor (final snapshot push +
// promote). Call after the HTTP server stopped accepting requests and
// before Stop. Sessions whose handoff fails stay on disk and fail over
// through their shipped replicas instead.
func (n *Node) Drain(ctx context.Context) {
	n.draining.Store(true)
	now := time.Now()
	ring := n.ring(now)
	for id := range n.srv.DurableSeqs() {
		select {
		case <-ctx.Done():
			n.logger.Warn("drain cut short", "err", ctx.Err())
			return
		default:
		}
		var target *peer
		for _, nodeID := range ring.Prefer(id, len(ring.Nodes())) {
			if nodeID == n.cfg.Self {
				continue
			}
			if p := n.handoffTarget(nodeID, now); p != nil {
				target = p
				break
			}
		}
		if target == nil {
			n.logger.Warn("drain: no successor for session", "session", id)
			continue
		}
		if err := n.handoff(id, target); err != nil {
			n.logger.Warn("drain handoff failed", "session", id, "target", target.id, "err", err)
		}
	}
}

// Draining reports whether Drain has begun (for /v1/cluster/status).
func (n *Node) Draining() bool { return n.draining.Load() }

// indexOf returns s's position in list (len(list) when absent), the
// preference rank used for tie-breaks.
func indexOf(list []string, s string) int {
	if i := slices.Index(list, s); i >= 0 {
		return i
	}
	return len(list)
}

// drainBody releases an HTTP response so the connection can be reused.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
