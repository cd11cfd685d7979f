package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// PeerState is a peer's health as judged by this node's heartbeats.
type PeerState uint8

// Peers move alive -> suspect -> dead as heartbeats go unanswered, and
// snap back to alive on the first success. Suspect peers still count as
// ring members (no failover yet); dead peers are removed from placement
// and their sessions fail over.
const (
	StateAlive PeerState = iota
	StateSuspect
	StateDead
)

// String names the state for status output.
func (s PeerState) String() string {
	switch s {
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return "alive"
	}
}

// peer is one remote node in the membership table.
type peer struct {
	id  string
	url string

	mu       sync.Mutex
	lastSeen time.Time
	lastErr  string
	// sessions is every durable copy the peer reported on its last
	// heartbeat — live sessions and standby replicas with their WAL
	// sequences — the freshness evidence the reconcile loop compares
	// replicas by. reported distinguishes "answered with an empty
	// table" from "never answered at all": only the latter blocks
	// failover decisions.
	sessions map[string]sessionReport
	reported bool
	// draining mirrors the peer's own draining flag: such a peer still
	// serves and replicates, but must not be handed new sessions.
	draining bool
	// noted is when out-of-band evidence (a promote request, an
	// acknowledged handoff, a landed replication push) last edited
	// sessions or draining: a heartbeat table asked for before then is
	// older than that evidence.
	noted time.Time
}

// sessionReport is one durable session copy in a heartbeat payload.
type sessionReport struct {
	Seq  int64 `json:"seq"`
	Live bool  `json:"live,omitempty"`
}

// membership is the static peer table plus the health view derived from
// heartbeat timestamps. The member set never changes at runtime (-peers
// is static); only health does.
type membership struct {
	self         string
	peers        map[string]*peer // keyed by node ID, self excluded
	suspectAfter time.Duration
	deadAfter    time.Duration
}

// newMembership builds the table. Every peer starts with lastSeen = now:
// a freshly booted node must not declare the world dead (and start
// stealing sessions) before its first heartbeat round has had time to
// complete.
func newMembership(self string, peers map[string]string, suspectAfter, deadAfter time.Duration, now time.Time) *membership {
	m := &membership{
		self:         self,
		peers:        make(map[string]*peer, len(peers)),
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
	}
	for id, url := range peers {
		if id == self {
			continue
		}
		m.peers[id] = &peer{id: id, url: url, lastSeen: now}
	}
	return m
}

// markAlive records a successful heartbeat asked for at now and the
// peer's piggybacked session table (nil sessions refreshes liveness
// without touching the table — e.g. receiving the peer's own ping
// proves it is up; draining is only trusted alongside an authoritative
// table). A table older than the last out-of-band evidence is dropped.
func (m *membership) markAlive(id string, sessions map[string]sessionReport, draining bool, now time.Time) {
	p := m.peers[id]
	if p == nil {
		return
	}
	p.mu.Lock()
	if now.After(p.lastSeen) {
		p.lastSeen = now
	}
	p.lastErr = ""
	if sessions != nil && now.After(p.noted) {
		p.sessions = sessions
		p.reported = true
		p.draining = draining
	}
	p.mu.Unlock()
}

// markFailed records a failed heartbeat. State degrades by elapsed time
// since lastSeen, not by failure count, so one slow round never flaps a
// peer.
func (m *membership) markFailed(id string, err error) {
	p := m.peers[id]
	if p == nil {
		return
	}
	p.mu.Lock()
	p.lastErr = err.Error()
	p.mu.Unlock()
}

// state derives a peer's health from its heartbeat age.
func (m *membership) state(p *peer, now time.Time) PeerState {
	p.mu.Lock()
	age := now.Sub(p.lastSeen)
	p.mu.Unlock()
	switch {
	case age >= m.deadAfter:
		return StateDead
	case age >= m.suspectAfter:
		return StateSuspect
	default:
		return StateAlive
	}
}

// allReported reports whether every non-dead peer has answered at
// least one heartbeat with its session inventory. Until then this
// node's view of who serves what is blank, not empty — acting on it
// (promoting standbys) could double-own a session a silent peer is
// still serving.
func (m *membership) allReported(now time.Time) bool {
	for _, p := range m.peers {
		if m.state(p, now) == StateDead {
			continue
		}
		p.mu.Lock()
		unknown := !p.reported
		p.mu.Unlock()
		if unknown {
			return false
		}
	}
	return true
}

// reports calls fn with every copy of a session a non-dead peer
// reported on its last heartbeat, live or standby: the evidence
// placement and failover decide from.
func (m *membership) reports(session string, now time.Time, fn func(p *peer, rep sessionReport)) {
	for _, p := range m.peers {
		if m.state(p, now) == StateDead {
			continue
		}
		p.mu.Lock()
		rep, ok := p.sessions[session]
		p.mu.Unlock()
		if ok {
			fn(p, rep)
		}
	}
}

// releaseClaim retires a live claim the peer reported: the promote
// request that just arrived proves the peer demoted that session (a
// handoff demotes before pushing), so its last heartbeat table is
// stale on this one entry. The durable copy it keeps as a standby
// stays visible at its sequence.
func (m *membership) releaseClaim(peerID, session string) {
	p := m.peers[peerID]
	if p == nil {
		return
	}
	p.mu.Lock()
	if rep, ok := p.sessions[session]; ok && rep.Live {
		rep.Live = false
		p.sessions[session] = rep
	}
	p.noted = time.Now()
	p.mu.Unlock()
}

// claim records the peer serving a session live at seq: a handoff the
// peer just acknowledged, or a replication push it just sent, proves it
// ahead of the peer's next heartbeat.
func (m *membership) claim(peerID, session string, seq int64) {
	p := m.peers[peerID]
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.sessions == nil {
		p.sessions = make(map[string]sessionReport)
	}
	p.sessions[session] = sessionReport{Seq: seq, Live: true}
	p.noted = time.Now()
	p.mu.Unlock()
}

// setDraining marks a peer draining on out-of-band evidence (a promote
// request that says so) ahead of any heartbeat proving it — the peer
// may exit before answering another ping.
func (m *membership) setDraining(id string) {
	p := m.peers[id]
	if p == nil {
		return
	}
	p.mu.Lock()
	p.draining = true
	p.noted = time.Now()
	p.mu.Unlock()
}

// peerDraining reports whether the peer flagged itself draining on its
// last inventory report (or a promote request that said so).
func (m *membership) peerDraining(id string) bool {
	p := m.peers[id]
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// ringMembers returns the node IDs placement should use right now:
// self plus every peer not currently dead. Sorted, so identical health
// views yield identical rings.
func (m *membership) ringMembers(now time.Time) []string {
	out := []string{m.self}
	for id, p := range m.peers {
		if m.state(p, now) != StateDead {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// PeerStatus is one node's health on /v1/cluster/status.
type PeerStatus struct {
	ID           string  `json:"id"`
	URL          string  `json:"url,omitempty"`
	State        string  `json:"state"`
	LastSeenSecs float64 `json:"last_seen_seconds"` // age of last heartbeat
	LastError    string  `json:"last_error,omitempty"`
	Sessions     int     `json:"sessions"` // live sessions it reported
}

// snapshot renders the whole table for status output, self first.
func (m *membership) snapshot(now time.Time, selfSessions int) []PeerStatus {
	out := []PeerStatus{{
		ID: m.self, State: StateAlive.String(), Sessions: selfSessions,
	}}
	ids := make([]string, 0, len(m.peers))
	for id := range m.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := m.peers[id]
		st := m.state(p, now)
		p.mu.Lock()
		out = append(out, PeerStatus{
			ID:           id,
			URL:          p.url,
			State:        st.String(),
			LastSeenSecs: now.Sub(p.lastSeen).Seconds(),
			LastError:    p.lastErr,
			Sessions:     len(p.sessions),
		})
		p.mu.Unlock()
	}
	return out
}

// ParsePeers parses the -peers flag: comma-separated id=url pairs,
// e.g. "a=http://10.0.0.1:8080,b=http://10.0.0.2:8080". The list must
// include every node of the cluster, this node included — all members
// compute placement from the same set.
func ParsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad -peers entry %q (want id=url)", part)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q in -peers", id)
		}
		out[id] = strings.TrimRight(url, "/")
	}
	return out, nil
}
