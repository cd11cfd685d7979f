package rete

import (
	"sort"

	"repro/internal/bucket"
	"repro/internal/ops5"
)

// This file implements equality-keyed hash indexes over alpha and beta
// memories. CompilePlan makes the equality subset of each two-input
// node's tests its join key; the serial network's memories maintain
// hash buckets (bucket.go) alongside their slices, one index per key,
// and activations probe the matching bucket instead of scanning
// the whole memory. Both the serial matcher and the parallel matcher's
// lock-striped buckets key on the allocation-free uint64 hash
// (JoinHashFuncs over ops5.HashValue). The hash is Equal-consistent but
// not injective, so every candidate drawn from a bucket is still
// re-verified with the node's full test chain: a key collision can only
// widen a bucket, never fabricate or lose a match.
//
// Mutating a memory while one of its chains is being iterated would be
// unsafe, but the network is a DAG: propagation only ever mutates
// memories downstream of the one being iterated.
//
// Nodes with no equality tests (pure predicate joins) keep the linear
// scan; indexed not-nodes keep their count semantics but store the
// left records keyed by join key.

// SplitJoinTests returns the equality tests among a two-input node's
// tests — its hash join key — in canonical order, so that nodes keying a
// memory by the same columns get the same spec whatever order the
// production wrote them in.
func SplitJoinTests(tests []JoinTest) []JoinTest {
	var eq []JoinTest
	for _, t := range tests {
		if t.Pred == ops5.PredEq {
			eq = append(eq, t)
		}
	}
	if len(eq) > 1 {
		keys := make([]string, len(eq))
		for i := range eq {
			keys[i] = eq[i].key()
		}
		sort.Sort(&byKey[JoinTest]{eq, keys})
	}
	return eq
}

// JoinHashFuncs returns the two sides' allocation-free key functions for
// an equality test list (as returned by SplitJoinTests): they fold the
// key columns into a uint64 with ops5.HashValue. A (token, WME) pair
// passing every equality test always produces leftHash == rightHash.
func JoinHashFuncs(eq []JoinTest) (leftHash func(*Token) uint64, rightHash func(*ops5.WME) uint64) {
	leftHash = func(tok *Token) uint64 {
		h := ops5.HashSeed
		for _, t := range eq {
			h = ops5.HashValue(h, tok.WMEs[t.LeftIdx].GetID(t.LeftID))
		}
		return h
	}
	rightHash = func(w *ops5.WME) uint64 {
		h := ops5.HashSeed
		for _, t := range eq {
			h = ops5.HashValue(h, w.GetID(t.RightID))
		}
		return h
	}
	return leftHash, rightHash
}

// keyMemo carries one element through one visit to a memory — the update
// of the memory's own indexes, then the activation of every two-input
// node below it — and computes each of the memory's join-key hashes at
// most once on the way: the index a token is filed under and the probe
// of the opposite memory one node further down use the same key.
type keyMemo[E any] struct {
	x    E
	keys []func(E) uint64 // the visited memory's AlphaNode/BetaNode Keys
	have uint8            // bit k: hash[k] is computed
	hash [4]uint64
}

// key returns the element's hash under the memory's k-th key.
func (m *keyMemo[E]) key(k int) uint64 {
	if k >= len(m.hash) {
		return m.keys[k](m.x)
	}
	if m.have&(1<<k) == 0 {
		m.have |= 1 << k
		m.hash[k] = m.keys[k](m.x)
	}
	return m.hash[k]
}

// index is a hash index over a serial memory's entries (WMEs of an alpha
// memory, tokens of a beta memory), keyed by one of the memory's key
// hashes. Entries are identified by pointer: a token is removed through
// the very pointer that was stored (the one memory.remove returned).
type index[E comparable] struct {
	buckets bucket.Buckets[E]
}

// insert files m's element under the memory's k-th key.
func (ix *index[E]) insert(m *keyMemo[E], k int) {
	ix.buckets.Add(m.key(k), m.x)
}

func (ix *index[E]) remove(m *keyMemo[E], k int) {
	key := m.key(k)
	prev := int32(-1)
	for i := ix.buckets.Head(key); i >= 0; prev, i = i, ix.buckets.Next(i) {
		if *ix.buckets.At(i) == m.x {
			ix.buckets.Unlink(key, prev, i)
			return
		}
	}
}

// probe collects the bucket for key k into scratch's storage (grown as
// needed and retained by the caller across probes, so steady-state
// probing does not allocate) and returns the filled slice.
func (ix *index[E]) probe(k uint64, scratch *[]E) []E {
	out := (*scratch)[:0]
	for i := ix.buckets.Head(k); i >= 0; i = ix.buckets.Next(i) {
		out = append(out, *ix.buckets.At(i))
	}
	*scratch = out
	return out
}
