// Package cluster turns psmd into a multi-node service. The paper's
// architectures (§4–5) scale production-system match across the
// processors of one shared-memory machine; this package scales the
// hosted service across machines, with the session — not the production
// — as the unit of placement. Each session is owned by the node a
// consistent-hash ring assigns it to; the owner streams its durable WAL
// (internal/durable) to R−1 follower replicas, and on owner death the
// next-ranked follower promotes by replaying its shipped snapshot+tail,
// exactly the crash-recovery path a single node already exercises.
//
// The pieces:
//
//   - ring.go       consistent-hash placement with virtual nodes
//   - membership.go static peer table + heartbeat (alive/suspect/dead)
//   - ship.go       per-session WAL shipping to followers
//   - node.go       the reconcile loop: handoff, promotion, drain
//   - handler.go    placement + the /v1/internal wire protocol (routes
//     declared in the server's table)
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring places session IDs onto node IDs by consistent hashing with
// virtual nodes: each node is hashed onto the circle vnodes times, a
// key's owner is the first vnode clockwise from the key's hash, and the
// preference list continues clockwise skipping vnodes of nodes already
// chosen. Placement depends only on the member set, so every node
// computes identical rings from identical membership. A Ring is
// immutable once built.
type Ring struct {
	hashes []uint64
	owners []string // owners[i] is the node owning hashes[i]
	nodes  []string
}

// vnodes is the virtual nodes per member: it balances placement within
// a few percent for small clusters without making ring construction
// measurable.
const vnodes = 64

// NewRing builds a ring over nodes (order-insensitive; duplicates are
// collapsed).
func NewRing(nodes []string) *Ring {
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		hashes: make([]uint64, 0, len(uniq)*vnodes),
		owners: make([]string, 0, len(uniq)*vnodes),
		nodes:  uniq,
	}
	type point struct {
		h     uint64
		owner string
	}
	points := make([]point, 0, len(uniq)*vnodes)
	for _, n := range uniq {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{hash64(fmt.Sprintf("%s#%d", n, v)), n})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].h < points[j].h })
	for _, p := range points {
		r.hashes = append(r.hashes, p.h)
		r.owners = append(r.owners, p.owner)
	}
	return r
}

// Nodes returns the member set the ring was built over (sorted).
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the node that owns key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	return r.owners[r.search(key)]
}

// Prefer returns the first n distinct nodes clockwise from key's hash —
// the session's owner followed by its replica candidates in promotion
// order. n past the member count returns every node.
func (r *Ring) Prefer(key string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); i < len(r.hashes) && len(out) < n; i++ {
		owner := r.owners[(start+i)%len(r.hashes)]
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	return out
}

// search finds the first vnode clockwise from key's hash.
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return i
}

// hash64 is FNV-1a with a splitmix64 finalizer: cheap, stable across
// processes, and free of dependencies — placement must agree between
// nodes built from the same source. Raw FNV distributes short similar
// strings ("a#0", "a#1", ...) unevenly around the circle; the
// finalizer's avalanche fixes the spread.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
