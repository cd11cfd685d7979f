package cluster

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
)

// The intra-cluster wire protocol, all under /v1/internal (never
// placed, never proxied):
//
//	GET    /v1/internal/ping?from={node}        heartbeat; responds with this
//	                                            node's session/seq table
//	POST   /v1/internal/replicate/{id}/snapshot?from={node}
//	                                            install a shipped snapshot
//	                                            (body: frame(manifest)+frame(snapshot))
//	POST   /v1/internal/replicate/{id}/records?from={node}
//	                                            append shipped WAL records
//	                                            (body: concatenated CRC frames)
//	DELETE /v1/internal/replicate/{id}          drop the standby replica
//	POST   /v1/internal/promote/{id}            promote the standby to live
//
// plus one public endpoint:
//
//	GET    /v1/cluster/status                   membership, sessions, replication
//
// The routes are declared in server.HandlerWith's table beside the
// sessions API, so they share its request deadline, X-Request-Id echo,
// request log line and writeError envelope. Replication acks are
// {"seq":N}. A 409 "gap" makes the sender resync the follower from a
// snapshot; a 409 "stale" says the receiver serves the session live or
// holds newer state. Sessions API clients see 307 "wrong_node" (with
// Location), 502 "bad_gateway" when a proxy hop fails and 503
// "unavailable" while a session may fail over — all retryable — and 404
// only when no node knows the session.
//
// forwardedHeader marks a proxied request so a misconfigured ring can
// never bounce a request in a forwarding loop.
const forwardedHeader = "X-Psmd-Forwarded"

// pingResponse is the heartbeat payload.
type pingResponse struct {
	Node     string                   `json:"node"`
	Draining bool                     `json:"draining,omitempty"`
	Sessions map[string]sessionReport `json:"sessions,omitempty"`
}

// ackResponse acknowledges a replication push with the standby's
// position.
type ackResponse struct {
	Seq int64 `json:"seq"`
}

// SessionStatus is one live session on /v1/cluster/status.
type SessionStatus struct {
	ID             string `json:"id"`
	Seq            int64  `json:"seq"`
	ReplicationLag int64  `json:"replication_lag"`
}

// StandbyStatus is one standby replica on /v1/cluster/status.
type StandbyStatus struct {
	ID  string `json:"id"`
	Seq int64  `json:"seq"`
}

// StatusResponse is the body of GET /v1/cluster/status.
type StatusResponse struct {
	Node      string          `json:"node"`
	Version   string          `json:"version,omitempty"`
	Ready     bool            `json:"ready"`
	Draining  bool            `json:"draining"`
	Replicas  int             `json:"replicas"`
	Forward   bool            `json:"forward"`
	Members   []PeerStatus    `json:"members"`
	Sessions  []SessionStatus `json:"sessions"`
	Standbys  []StandbyStatus `json:"standbys"`
	Failovers int64           `json:"failovers"`
	Handoffs  int64           `json:"handoffs"`
}

// reply is the error a cluster handler answers with; 307, 502 and 503
// are retryable, conflicts and bad requests are not.
func reply(status int, code, msg string) *server.ReplyError {
	retryable := status == http.StatusTemporaryRedirect ||
		status == http.StatusBadGateway || status == http.StatusServiceUnavailable
	return &server.ReplyError{Status: status,
		ErrorResponse: server.ErrorResponse{Code: code, Message: msg, Retryable: retryable}}
}

// Place implements server.Replicator. A session live here is served
// here; one that leaves while the request waits for its shard (a
// handoff, a demotion) answers 503, not 404. Any other request goes
// where target says: a peer gets it by proxy under -forward, and
// always for a pinned ID, which a client redirected elsewhere could not
// know; otherwise the client gets a 307.
func (n *Node) Place(w http.ResponseWriter, r *http.Request, id string, pinned bool, serve func() error) error {
	if n.srv.HasSession(id) {
		if err := serve(); !errors.Is(err, server.ErrNoSession) {
			return err
		}
		return reply(http.StatusServiceUnavailable, "unavailable", "session "+id+" moved off this node; retry")
	}
	target, err := n.target(id, r.Header.Get(forwardedHeader) != "")
	switch {
	case err != nil:
		return err
	case target == nil:
		return serve()
	case n.cfg.Forward || pinned:
		return n.proxy(w, r, target)
	}
	w.Header().Set("Location", target.url+r.URL.RequestURI())
	return reply(http.StatusTemporaryRedirect, "wrong_node",
		"session is owned by "+target.id+"; retry at the Location header")
}

// NewSessionID implements server.Replicator: the node ID prefix keeps
// the IDs it generates collision-free across the cluster.
func (n *Node) NewSessionID() string {
	return fmt.Sprintf("s-%s-%06d", n.cfg.Self, n.createSeq.Add(1))
}

// target picks the peer a request for a session not live here belongs
// to: a non-dead peer claiming it live, else the first node of its ring
// preference that is not draining (nil: this node). A forwarded request
// was placed by the peer that sent it, and one hop is all the protocol
// allows, so it stays here. A request that stays answers 503 while some
// copy of the session may still come live — a standby here (or one
// being promoted), a copy a non-dead peer reports, or a peer not yet
// heard from since startup — and reaches the sessions API (404, or a
// create) only when no node knows the session.
func (n *Node) target(id string, forwarded bool) (*peer, error) {
	now := time.Now()
	unavailable := reply(http.StatusServiceUnavailable, "unavailable",
		"session "+id+" is not live on any reachable node yet")
	if !n.mem.allReported(now) {
		return nil, unavailable
	}
	if !forwarded {
		// A suspect peer keeps its claims and its place in the ring
		// until its dead timer, and reconcile places by that ring:
		// placing by it here too leaves a new session where reconcile
		// wants it and sends a request where its session is. A proxy
		// hop to a peer that is gone answers 502, which is retryable.
		if holder, _ := n.liveClaim(id, now); holder != "" {
			return n.mem.peers[holder], nil
		}
		for _, nodeID := range n.ring(now).Prefer(id, len(n.cfg.Peers)) {
			if nodeID == n.cfg.Self {
				break
			}
			// A draining peer takes no new session: reconcile never
			// hands it one, and its drain moves only the sessions it
			// held when the drain began.
			if !n.mem.peerDraining(nodeID) {
				return n.mem.peers[nodeID], nil
			}
		}
	}
	known := n.holdsCopy(id)
	n.mem.reports(id, now, func(*peer, sessionReport) { known = true })
	if known {
		return nil, unavailable
	}
	return nil, nil
}

// proxy forwards the request to a peer and relays the response.
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, target *peer) error {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target.url+r.URL.RequestURI(), r.Body)
	if err != nil {
		return err
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardedHeader, n.cfg.Self)
	resp, err := n.client.Do(req)
	if err != nil {
		return reply(http.StatusBadGateway, "bad_gateway", fmt.Sprintf("forward to %s: %v", target.id, err))
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.Header().Set("X-Psmd-Served-By", target.id)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return nil
}

// ServePing implements server.Replicator.
func (n *Node) ServePing(w http.ResponseWriter, r *http.Request) error {
	// The ping itself proves the sender is up; its session table
	// arrives when we ping it back.
	if from := r.URL.Query().Get("from"); from != "" {
		n.mem.markAlive(from, nil, false, time.Now())
	}
	return server.WriteJSON(w, http.StatusOK, pingResponse{
		Node:     n.cfg.Self,
		Draining: n.Draining(),
		Sessions: n.sessionsReport(),
	})
}

// refuseLive answers 409 stale when this node serves the session live:
// whoever is shipping to it holds a stale copy.
func (n *Node) refuseLive(id string) error {
	if n.srv.HasSession(id) {
		return reply(http.StatusConflict, "stale", "session is live on this node; the sender's copy is stale")
	}
	return nil
}

// ack answers a replication push: the standby's new position, or the
// conflict that makes the sender resync (gap) or stand down (stale). A
// push that lands proves its sender holds the session, ahead of any
// heartbeat: reconcile must not promote this standby in the meantime.
func (n *Node) ack(w http.ResponseWriter, r *http.Request, id string, seq int64, err error) error {
	switch {
	case errors.Is(err, durable.ErrSequenceGap):
		return reply(http.StatusConflict, "gap", err.Error())
	case errors.Is(err, durable.ErrStaleSnapshot):
		return reply(http.StatusConflict, "stale", err.Error())
	case err != nil:
		return err
	}
	n.mem.claim(r.URL.Query().Get("from"), id, seq)
	return server.WriteJSON(w, http.StatusOK, ackResponse{Seq: seq})
}

// ServeReplicaSnapshot implements server.Replicator.
func (n *Node) ServeReplicaSnapshot(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if err := n.refuseLive(id); err != nil {
		return err
	}
	manifest, err := durable.DecodeFrame(r.Body)
	if err != nil {
		return reply(http.StatusBadRequest, "bad_request", fmt.Sprintf("manifest frame: %v", err))
	}
	snap, err := durable.DecodeFrame(r.Body)
	if err != nil {
		return reply(http.StatusBadRequest, "bad_request", fmt.Sprintf("snapshot frame: %v", err))
	}
	st, err := n.putStandby(id)
	if err != nil {
		return err
	}
	seq, err := st.InstallSnapshot(manifest, snap)
	n.logger.Debug("replica snapshot installed", "session", id, "seq", seq, "err", err)
	return n.ack(w, r, id, seq, err)
}

// ServeReplicaRecords implements server.Replicator.
func (n *Node) ServeReplicaRecords(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if err := n.refuseLive(id); err != nil {
		return err
	}
	st := n.standby(id)
	if st == nil {
		return reply(http.StatusConflict, "gap", "no replica for this session; ship a snapshot first")
	}
	seq, _, err := st.AppendRecords(r.Body)
	n.logger.Debug("replica records appended", "session", id, "seq", seq, "err", err)
	return n.ack(w, r, id, seq, err)
}

// ServeReplicaDelete implements server.Replicator.
func (n *Node) ServeReplicaDelete(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if st := n.takeStandby(id); st != nil {
		if err := st.Remove(); err != nil {
			n.logger.Warn("standby removal", "session", id, "err", err)
		}
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// ServePromote implements server.Replicator.
func (n *Node) ServePromote(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	// The request itself is fresher evidence than any heartbeat: the
	// sender demoted its copy before asking (handoff pushes state
	// first), so its live claim is gone even if its last-reported
	// inventory still shows it — and a draining sender may exit before
	// ever answering another ping. Recording both here keeps the
	// reconcile loop from demoting to, or handing back to, a ghost.
	if from := r.URL.Query().Get("from"); from != "" {
		n.mem.releaseClaim(from, id)
		if r.URL.Query().Get("draining") == "1" {
			n.mem.setDraining(from)
		}
	}
	if n.Draining() {
		// A draining node is about to exit; adopting a session now
		// would immediately orphan it again.
		return reply(http.StatusServiceUnavailable, "draining", "node is draining")
	}
	if !n.srv.HasSession(id) {
		if err := n.promoteStandby(id); err != nil {
			return reply(http.StatusConflict, "promote_failed", err.Error())
		}
	}
	return server.WriteJSON(w, http.StatusOK, ackResponse{Seq: n.srv.DurableSeqs()[id]})
}

// ServeStatus implements server.Replicator.
func (n *Node) ServeStatus(w http.ResponseWriter, r *http.Request) error {
	now := time.Now()
	live := n.srv.DurableSeqs()
	out := StatusResponse{
		Node:      n.cfg.Self,
		Version:   n.cfg.Version,
		Ready:     n.srv.Ready(),
		Draining:  n.Draining(),
		Replicas:  n.cfg.Replicas,
		Forward:   n.cfg.Forward,
		Members:   n.mem.snapshot(now, len(live)),
		Sessions:  []SessionStatus{},
		Standbys:  []StandbyStatus{},
		Failovers: n.failovers.Value(),
		Handoffs:  n.handoffs.Value(),
	}
	n.mu.Lock()
	for id, seq := range live {
		st := SessionStatus{ID: id, Seq: seq}
		if sp := n.shippers[id]; sp != nil {
			st.ReplicationLag = sp.lag()
		}
		out.Sessions = append(out.Sessions, st)
	}
	for id, st := range n.standbys {
		out.Standbys = append(out.Standbys, StandbyStatus{ID: id, Seq: st.Seq()})
	}
	n.mu.Unlock()
	slices.SortFunc(out.Sessions, func(a, b SessionStatus) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(out.Standbys, func(a, b StandbyStatus) int { return cmp.Compare(a.ID, b.ID) })
	return server.WriteJSON(w, http.StatusOK, out)
}

// --- client side of the wire protocol ---

// call sends one intra-cluster request to a peer and decodes a 2xx
// JSON reply into out (when non-nil). Any other reply comes back as the
// peer's error envelope, a *server.ReplyError.
func (n *Node) call(p *peer, method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, p.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer drainBody(resp)
	dec := json.NewDecoder(io.LimitReader(resp.Body, 8<<20))
	if resp.StatusCode/100 != 2 {
		e := &server.ReplyError{Status: resp.StatusCode}
		dec.Decode(&e.ErrorResponse)
		return fmt.Errorf("%s %s on %s: %w", method, path, p.id, e)
	}
	if out == nil {
		return nil
	}
	return dec.Decode(out)
}

// isGap reports a follower's 409 gap: it misses history and needs a
// snapshot.
func isGap(err error) bool {
	var e *server.ReplyError
	return errors.As(err, &e) && e.Code == "gap"
}

// ping heartbeats one peer and returns its session table and draining
// state.
func (n *Node) ping(p *peer) (map[string]sessionReport, bool, error) {
	var pr pingResponse
	err := n.call(p, http.MethodGet, "/v1/internal/ping?from="+n.cfg.Self, nil, &pr)
	return pr.Sessions, pr.Draining, err
}

// pushSnapshot ships a manifest+snapshot pair to a peer's standby and
// returns the standby's new sequence.
func (n *Node) pushSnapshot(p *peer, id string, manifest, snap []byte) (int64, error) {
	mf, err := durable.EncodeFrame(manifest)
	if err != nil {
		return 0, err
	}
	sf, err := durable.EncodeFrame(snap)
	if err != nil {
		return 0, err
	}
	var a ackResponse
	err = n.call(p, http.MethodPost, "/v1/internal/replicate/"+id+"/snapshot?from="+n.cfg.Self, append(mf, sf...), &a)
	return a.Seq, err
}

// pushRecords ships framed WAL records and returns the standby's new
// sequence.
func (n *Node) pushRecords(p *peer, id string, frames []byte) (int64, error) {
	var a ackResponse
	err := n.call(p, http.MethodPost, "/v1/internal/replicate/"+id+"/records?from="+n.cfg.Self, frames, &a)
	return a.Seq, err
}

// requestPromote asks a peer to promote its standby to live and
// returns the session's sequence there. The sender identifies itself
// (and whether it is draining) so the peer can retire the sender's
// live claim without waiting for a heartbeat.
func (n *Node) requestPromote(p *peer, id string) (int64, error) {
	path := "/v1/internal/promote/" + id + "?from=" + n.cfg.Self
	if n.Draining() {
		path += "&draining=1"
	}
	var a ackResponse
	err := n.call(p, http.MethodPost, path, nil, &a)
	return a.Seq, err
}

// deleteReplica tears down a peer's standby after session deletion.
func (n *Node) deleteReplica(p *peer, id string) error {
	return n.call(p, http.MethodDelete, "/v1/internal/replicate/"+id, nil, nil)
}
