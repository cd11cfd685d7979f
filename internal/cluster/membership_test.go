package cluster

import (
	"testing"
	"time"
)

// TestMembershipReleaseClaim covers the out-of-band evidence a promote
// request carries: the sender's live claim retires and its draining
// flag sets immediately, without waiting for a heartbeat round — and a
// later authoritative heartbeat table takes over again.
func TestMembershipReleaseClaim(t *testing.T) {
	now := time.Now()
	urls := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}
	m := newMembership("a", urls, time.Second, 2*time.Second, now)

	m.markAlive("c", map[string]sessionReport{"s": {Seq: 7, Live: true}}, false, now)
	if m.peerDraining("c") {
		t.Fatal("peer reads as draining before any evidence")
	}

	m.releaseClaim("c", "s")
	m.setDraining("c")
	p := m.peers["c"]
	p.mu.Lock()
	rep := p.sessions["s"]
	p.mu.Unlock()
	if rep.Live {
		t.Fatalf("claim still live after release: %+v", rep)
	}
	if rep.Seq != 7 {
		t.Fatalf("release lost the sequence: %+v", rep)
	}
	if !m.peerDraining("c") {
		t.Fatal("draining evidence not recorded")
	}

	// Unknown peers and sessions are no-ops, not panics.
	m.releaseClaim("zz", "s")
	m.releaseClaim("b", "zz")
	m.setDraining("zz")
	if m.peerDraining("zz") {
		t.Fatal("unknown peer reads as draining")
	}

	// The next authoritative inventory wins: the peer reports the
	// session live again (it re-adopted) and is no longer draining.
	m.markAlive("c", map[string]sessionReport{"s": {Seq: 9, Live: true}}, false, now)
	p.mu.Lock()
	rep = p.sessions["s"]
	p.mu.Unlock()
	if rep.Live {
		t.Fatal("a table asked for before the release overrode it")
	}
	m.markAlive("c", map[string]sessionReport{"s": {Seq: 9, Live: true}}, false, time.Now())
	p.mu.Lock()
	rep = p.sessions["s"]
	p.mu.Unlock()
	if !rep.Live || rep.Seq != 9 {
		t.Fatalf("fresh heartbeat table did not replace the release: %+v", rep)
	}
	if m.peerDraining("c") {
		t.Fatal("draining flag survived an authoritative heartbeat saying otherwise")
	}
}
