package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	nodes := []string{"c", "a", "b"}
	r1 := NewRing(nodes)
	r2 := NewRing([]string{"b", "c", "a", "a"}) // order/dups must not matter
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("session-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("rings disagree on %q: %s vs %s", key, r1.Owner(key), r2.Owner(key))
		}
		pref := r1.Prefer(key, 3)
		if len(pref) != 3 {
			t.Fatalf("Prefer(%q, 3) = %v", key, pref)
		}
		if pref[0] != r1.Owner(key) {
			t.Fatalf("preference list does not start at owner: %v vs %s", pref, r1.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range pref {
			if seen[n] {
				t.Fatalf("duplicate node in preference list: %v", pref)
			}
			seen[n] = true
		}
	}
}

func TestRingSpread(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("s-%06d", i))]++
	}
	for n, c := range counts {
		// Virtual nodes should keep placement within a loose band of
		// the 1/3 ideal; a broken ring lands everything on one node.
		if c < keys/6 || c > keys/2 {
			t.Fatalf("node %s owns %d of %d keys; spread %v", n, c, keys, counts)
		}
	}
}

func TestRingStabilityUnderMemberLoss(t *testing.T) {
	full := NewRing([]string{"a", "b", "c"})
	reduced := NewRing([]string{"a", "b"})
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("s-%06d", i)
		was, is := full.Owner(key), reduced.Owner(key)
		if was != "c" && was != is {
			moved++
		}
		if was == "c" && is == "c" {
			t.Fatalf("dead node still owns %q", key)
		}
	}
	// Consistent hashing's whole point: keys not owned by the dead
	// node stay put.
	if moved != 0 {
		t.Fatalf("%d of %d keys moved between surviving nodes", moved, keys)
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.Owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q", got)
	}
	if got := empty.Prefer("x", 2); got != nil {
		t.Fatalf("empty ring prefer = %v", got)
	}
	one := NewRing([]string{"solo"})
	if got := one.Owner("x"); got != "solo" {
		t.Fatalf("single ring owner = %q", got)
	}
	if got := one.Prefer("x", 5); len(got) != 1 || got[0] != "solo" {
		t.Fatalf("single ring prefer = %v", got)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=http://h1:1, b=http://h2:2/,c=http://h3:3")
	if err != nil {
		t.Fatalf("ParsePeers: %v", err)
	}
	if len(peers) != 3 || peers["b"] != "http://h2:2" {
		t.Fatalf("peers = %v", peers)
	}
	for _, bad := range []string{"a", "=url", "a=", "a=u,a=v"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
	if peers, err := ParsePeers(" "); err != nil || len(peers) != 0 {
		t.Fatalf("blank: %v %v", peers, err)
	}
}
