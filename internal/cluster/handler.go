package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
)

// The intra-cluster wire protocol, all under /v1/internal (never
// routed, never proxied):
//
//	GET    /v1/internal/ping?from={node}        heartbeat; responds with this
//	                                            node's session/seq table
//	POST   /v1/internal/replicate/{id}/snapshot install a shipped snapshot
//	                                            (body: frame(manifest)+frame(snapshot))
//	POST   /v1/internal/replicate/{id}/records  append shipped WAL records
//	                                            (body: concatenated CRC frames)
//	DELETE /v1/internal/replicate/{id}          drop the standby replica
//	POST   /v1/internal/promote/{id}            promote the standby to live
//
// Replication acks are {"seq":N}; protocol conflicts answer 409 with
// the standard error envelope plus the sequence — {"seq":N,
// "code":"gap"|"stale", "message":..., "retryable":false} — and the
// sender resyncs. Plus one public endpoint:
//
//	GET    /v1/cluster/status                   membership, sessions, replication
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

// ackResponse acknowledges a replication push. On a 409 conflict it
// doubles as the standard {code,message,retryable} error envelope with
// the sequence alongside, so internal endpoints speak the same error
// shape as the public API.
type ackResponse struct {
	Seq       int64  `json:"seq"`
	Code      string `json:"code,omitempty"`
	Message   string `json:"message,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// ackConflict builds the 409 ack envelope for a protocol conflict.
// Conflicts are not retryable as-is: the sender must resync (gap) or
// stop shipping (stale), not repeat the identical request.
func ackConflict(seq int64, code, msg string) ackResponse {
	return ackResponse{Seq: seq, Code: code, Message: msg}
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
	// SchedPhaseSeconds is this node's accumulated parallel-matcher
	// scheduler time by phase (the §6 loss-factor series), summed over
	// every hosted session; absent until a loss-capable matcher runs.
	SchedPhaseSeconds map[string]float64 `json:"sched_phase_seconds,omitempty"`
}

// Handler wraps the server's HTTP API with the cluster layer: the
// /v1/internal wire protocol and /v1/cluster/status are served here;
// every other request passes through session routing, which serves
// locally, proxies, or 307-redirects by consistent-hash placement.
func (n *Node) Handler(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/internal/ping", n.handlePing)
	mux.HandleFunc("POST /v1/internal/replicate/{id}/snapshot", n.handleReplicateSnapshot)
	mux.HandleFunc("POST /v1/internal/replicate/{id}/records", n.handleReplicateRecords)
	mux.HandleFunc("DELETE /v1/internal/replicate/{id}", n.handleReplicateDelete)
	mux.HandleFunc("POST /v1/internal/promote/{id}", n.handlePromote)
	mux.HandleFunc("GET /v1/cluster/status", n.handleStatus)
	mux.Handle("/", n.route(inner))
	return mux
}

// route is the placement middleware in front of the sessions API.
func (n *Node) route(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A forwarded request is served here no matter what this
		// node's ring says — the forwarding peer made the placement
		// decision, and one hop is all the protocol allows.
		if r.Header.Get(forwardedHeader) != "" {
			inner.ServeHTTP(w, r)
			return
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
			n.routeCreate(w, r, inner)
			return
		}
		id := sessionIDFromPath(r.URL.Path)
		if id == "" {
			inner.ServeHTTP(w, r) // list, operational endpoints, etc.
			return
		}
		target := n.target(id)
		if target == nil {
			inner.ServeHTTP(w, r)
			return
		}
		if n.cfg.Forward {
			n.proxy(w, r, target, nil)
			return
		}
		writeRedirect(w, target, r)
	})
}

// routeCreate handles POST /sessions: the session ID decides placement,
// and when the client did not pick one, this node generates it — then
// the request must be proxied, never redirected, or the generated ID
// would be lost and re-rolled by the next node.
func (n *Node) routeCreate(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		writeClusterError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("read create body: %v", err))
		return
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		writeClusterError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad create body: %v", err))
		return
	}
	var id string
	if raw, ok := fields["id"]; ok {
		json.Unmarshal(raw, &id)
	}
	generated := false
	if id == "" {
		id = fmt.Sprintf("s-%s-%06d", n.cfg.Self, n.createSeq.Add(1))
		fields["id"], _ = json.Marshal(id)
		body, _ = json.Marshal(fields)
		generated = true
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	target := n.target(id)
	if target == nil {
		inner.ServeHTTP(w, r)
		return
	}
	if n.cfg.Forward || generated {
		n.proxy(w, r, target, body)
		return
	}
	writeRedirect(w, target, r)
}

// target decides where a session's request belongs: nil to serve
// locally, else the peer to forward to. Locally live sessions are
// served here unconditionally (sticky ownership); otherwise a peer
// claiming the session live wins over ring placement, so requests keep
// landing on a failed-over owner even while the ring disagrees.
func (n *Node) target(id string) *peer {
	if n.srv.HasSession(id) {
		return nil
	}
	now := time.Now()
	if holder, _ := n.liveClaim(id, now); holder != "" {
		if p := n.alivePeer(holder, now); p != nil {
			return p
		}
	}
	for _, nodeID := range n.ring(now).Prefer(id, len(n.cfg.Peers)) {
		if nodeID == n.cfg.Self {
			return nil
		}
		if p := n.alivePeer(nodeID, now); p != nil {
			return p
		}
	}
	return nil
}

// proxy forwards the request to a peer and relays the response. body
// is the already-read request body (nil to stream r.Body).
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, target *peer, body []byte) {
	url := target.url + r.URL.RequestURI()
	var reader io.Reader = r.Body
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, reader)
	if err != nil {
		writeClusterError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardedHeader, n.cfg.Self)
	resp, err := n.client.Do(req)
	if err != nil {
		writeClusterError(w, http.StatusBadGateway, "bad_gateway",
			fmt.Sprintf("forward to %s: %v", target.id, err))
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Psmd-Served-By", target.id)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (n *Node) handlePing(w http.ResponseWriter, r *http.Request) {
	// The ping itself proves the sender is up; its session table
	// arrives when we ping it back.
	if from := r.URL.Query().Get("from"); from != "" {
		n.mem.markAlive(from, nil, false, time.Now())
	}
	writeJSON(w, http.StatusOK, pingResponse{
		Node:     n.cfg.Self,
		Draining: n.Draining(),
		Sessions: n.sessionsReport(),
	})
}

// standbyFor returns the session's standby, creating it when the
// sender is attaching this node as a new follower.
func (n *Node) standbyFor(id string, create bool) (*durable.Standby, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st := n.standbys[id]; st != nil {
		return st, nil
	}
	if !create {
		return nil, nil
	}
	dir := n.replicaDir(id)
	if err := os.MkdirAll(filepath.Dir(dir), 0o777); err != nil {
		return nil, err
	}
	st, err := durable.OpenStandby(dir)
	if err != nil {
		return nil, err
	}
	n.standbys[id] = st
	n.standbyG.Set(int64(len(n.standbys)))
	return st, nil
}

func (n *Node) handleReplicateSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if n.srv.HasSession(id) {
		// This node serves the session live: whoever is shipping to us
		// holds a stale copy (e.g. a rejoined crashed owner).
		seq := n.srv.DurableSeqs()[id]
		writeJSON(w, http.StatusConflict, ackConflict(seq, "stale",
			"session is live on this node; the sender's copy is stale"))
		return
	}
	manifest, err := durable.DecodeFrame(r.Body)
	if err != nil {
		writeClusterError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("manifest frame: %v", err))
		return
	}
	snap, err := durable.DecodeFrame(r.Body)
	if err != nil {
		writeClusterError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("snapshot frame: %v", err))
		return
	}
	st, err := n.standbyFor(id, true)
	if err != nil {
		writeClusterError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	seq, err := st.InstallSnapshot(manifest, snap)
	n.logger.Debug("replica snapshot installed", "session", id, "seq", seq, "err", err)
	switch {
	case errors.Is(err, durable.ErrStaleSnapshot):
		writeJSON(w, http.StatusConflict, ackConflict(seq, "stale", err.Error()))
	case err != nil:
		writeClusterError(w, http.StatusInternalServerError, "internal", err.Error())
	default:
		writeJSON(w, http.StatusOK, ackResponse{Seq: seq})
	}
}

func (n *Node) handleReplicateRecords(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if n.srv.HasSession(id) {
		seq := n.srv.DurableSeqs()[id]
		writeJSON(w, http.StatusConflict, ackConflict(seq, "stale",
			"session is live on this node; the sender's copy is stale"))
		return
	}
	st, err := n.standbyFor(id, false)
	if err != nil {
		writeClusterError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	if st == nil {
		// No replica here yet: the sender must ship a snapshot first.
		writeJSON(w, http.StatusConflict, ackConflict(0, "gap",
			"no replica for this session; ship a snapshot first"))
		return
	}
	seq, _, err := st.AppendRecords(r.Body)
	n.logger.Debug("replica records appended", "session", id, "seq", seq, "err", err)
	switch {
	case errors.Is(err, durable.ErrSequenceGap):
		writeJSON(w, http.StatusConflict, ackConflict(seq, "gap", err.Error()))
	case err != nil:
		writeClusterError(w, http.StatusInternalServerError, "internal", err.Error())
	default:
		writeJSON(w, http.StatusOK, ackResponse{Seq: seq})
	}
}

func (n *Node) handleReplicateDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n.mu.Lock()
	st := n.standbys[id]
	delete(n.standbys, id)
	n.standbyG.Set(int64(len(n.standbys)))
	n.mu.Unlock()
	if st != nil {
		if err := st.Remove(); err != nil {
			n.logger.Warn("standby removal", "session", id, "err", err)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
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
		writeClusterError(w, http.StatusServiceUnavailable, "draining", "node is draining")
		return
	}
	if n.srv.HasSession(id) {
		writeJSON(w, http.StatusOK, ackResponse{Seq: n.srv.DurableSeqs()[id]})
		return
	}
	if err := n.promoteStandby(id); err != nil {
		writeClusterError(w, http.StatusConflict, "promote_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ackResponse{Seq: n.srv.DurableSeqs()[id]})
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
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
		SchedPhaseSeconds: func() map[string]float64 {
			if m := n.srv.SchedPhaseSeconds(); len(m) > 0 {
				return m
			}
			return nil
		}(),
		Handoffs: n.handoffs.Value(),
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
	sortStatus(out.Sessions, out.Standbys)
	writeJSON(w, http.StatusOK, out)
}

// --- client side of the wire protocol ---

// ping heartbeats one peer and returns its session table and draining
// state.
func (n *Node) ping(p *peer) (map[string]sessionReport, bool, error) {
	resp, err := n.client.Get(p.url + "/v1/internal/ping?from=" + n.cfg.Self)
	if err != nil {
		return nil, false, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("ping %s: status %d", p.id, resp.StatusCode)
	}
	var pr pingResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&pr); err != nil {
		return nil, false, fmt.Errorf("ping %s: %w", p.id, err)
	}
	return pr.Sessions, pr.Draining, nil
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
	ack, status, err := n.post(p, "/v1/internal/replicate/"+id+"/snapshot", append(mf, sf...))
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("snapshot push to %s: status %d code %q", p.id, status, ack.Code)
	}
	return ack.Seq, nil
}

// pushRecords ships framed WAL records; gap reports the follower needs
// a snapshot resync.
func (n *Node) pushRecords(p *peer, id string, frames []byte) (seq int64, gap bool, err error) {
	ack, status, err := n.post(p, "/v1/internal/replicate/"+id+"/records", frames)
	if err != nil {
		return 0, false, err
	}
	switch {
	case status == http.StatusOK:
		return ack.Seq, false, nil
	case status == http.StatusConflict && ack.Code == "gap":
		return ack.Seq, true, nil
	default:
		return 0, false, fmt.Errorf("record push to %s: status %d code %q", p.id, status, ack.Code)
	}
}

// requestPromote asks a peer to promote its standby to live. The
// sender identifies itself (and whether it is draining) so the peer
// can retire the sender's live claim without waiting for a heartbeat.
func (n *Node) requestPromote(p *peer, id string) error {
	path := "/v1/internal/promote/" + id + "?from=" + n.cfg.Self
	if n.Draining() {
		path += "&draining=1"
	}
	_, status, err := n.post(p, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("promote on %s: status %d", p.id, status)
	}
	return nil
}

// deleteReplica tears down a peer's standby after session deletion.
func (n *Node) deleteReplica(p *peer, id string) error {
	req, err := http.NewRequest(http.MethodDelete, p.url+"/v1/internal/replicate/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	drainBody(resp)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("replica delete on %s: status %d", p.id, resp.StatusCode)
	}
	return nil
}

// post sends a replication POST and decodes the ack envelope.
func (n *Node) post(p *peer, path string, body []byte) (ackResponse, int, error) {
	resp, err := n.client.Post(p.url+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return ackResponse{}, 0, err
	}
	defer drainBody(resp)
	var ack ackResponse
	json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ack)
	return ack, resp.StatusCode, nil
}

// --- small helpers ---

// sessionIDFromPath extracts the {id} of a sessions API path ("" for
// non-session paths).
func sessionIDFromPath(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for i, p := range parts {
		if p == "sessions" && i+1 < len(parts) {
			return parts[i+1]
		}
	}
	return ""
}

// writeRedirect answers 307 to the owning peer with the standard error
// envelope as body — a bare redirect's empty body left non-following
// clients without the {code,message,retryable} shape every other error
// path speaks.
func writeRedirect(w http.ResponseWriter, target *peer, r *http.Request) {
	w.Header().Set("Location", target.url+r.URL.RequestURI())
	writeJSON(w, http.StatusTemporaryRedirect, server.ErrorResponse{
		Code:      "wrong_node",
		Message:   "session is owned by " + target.id + "; retry at the Location header",
		Retryable: true,
	})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// writeClusterError answers in the server's error envelope.
func writeClusterError(w http.ResponseWriter, status int, code, msg string) {
	retryable := status == http.StatusBadGateway || status == http.StatusServiceUnavailable
	writeJSON(w, status, server.ErrorResponse{Code: code, Message: msg, Retryable: retryable})
}

// sortStatus orders status slices for deterministic output.
func sortStatus(sessions []SessionStatus, standbys []StandbyStatus) {
	sortBy(sessions, func(a, b SessionStatus) bool { return a.ID < b.ID })
	sortBy(standbys, func(a, b StandbyStatus) bool { return a.ID < b.ID })
}

func sortBy[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
