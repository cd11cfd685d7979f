package rete

import (
	"sort"

	"repro/internal/ops5"
	"repro/internal/sym"
)

// This file implements equality-keyed hash indexes over alpha and beta
// memories. At prepare time (the first Apply) the equality subset of
// each two-input node's tests becomes a join key; the node's opposite
// memories maintain hash buckets (bucket.go) alongside their slices,
// and activations probe the matching bucket instead of scanning the
// whole memory. Both the serial matcher and the parallel matcher's
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

// SplitJoinTests partitions a two-input node's tests into the equality
// tests forming the hash join key (in canonical order, so nodes with
// the same key spec can share an index) and the residual predicate
// tests. Used here at prepare time and by the parallel matcher.
func SplitJoinTests(tests []JoinTest) (eq, rest []JoinTest) {
	for _, t := range tests {
		if t.Pred == ops5.PredEq {
			eq = append(eq, t)
		} else {
			rest = append(rest, t)
		}
	}
	if len(eq) > 1 {
		// Precompute keys: key() builds a string, and the comparator
		// runs O(n log n) times.
		keys := make(map[*JoinTest]string, len(eq))
		for i := range eq {
			keys[&eq[i]] = eq[i].key()
		}
		sort.Slice(eq, func(i, j int) bool { return keys[&eq[i]] < keys[&eq[j]] })
	}
	return eq, rest
}

// JoinHashFuncs returns the two sides' allocation-free key functions for
// an equality test list (as returned by SplitJoinTests): they fold the
// key columns into a uint64 with ops5.HashValue. A (token, WME) pair
// passing every equality test always produces leftHash == rightHash.
// The hash is Equal-consistent but not injective, so callers (this
// package's indexes and the parallel matcher's lock-striped buckets)
// re-verify bucket candidates with the node's full test chain.
func JoinHashFuncs(eq []JoinTest) (leftHash func(*Token) uint64, rightHash func(*ops5.WME) uint64) {
	tests := append([]JoinTest(nil), eq...)
	leftHash = func(tok *Token) uint64 {
		h := ops5.HashSeed
		for _, t := range tests {
			h = ops5.HashValue(h, tok.WMEs[t.LeftIdx].GetID(t.LeftID))
		}
		return h
	}
	rightHash = func(w *ops5.WME) uint64 {
		h := ops5.HashSeed
		for _, t := range tests {
			h = ops5.HashValue(h, w.GetID(t.RightID))
		}
		return h
	}
	return leftHash, rightHash
}

// alphaIndex is a hash index over an alpha memory's WMEs, keyed by the
// values of attrs (the RightID columns of one equality key spec). The
// buckets stay unbuilt — and insert/remove are no-ops — until the memory
// first reaches linearProbeMin items, the size below which activations
// scan linearly anyway; tiny memories then pay no key or map upkeep.
type alphaIndex struct {
	attrs   []sym.ID
	buckets Buckets[*ops5.WME]
}

func (ix *alphaIndex) key(w *ops5.WME) uint64 {
	h := ops5.HashSeed
	for _, a := range ix.attrs {
		h = ops5.HashValue(h, w.GetID(a))
	}
	return h
}

// build fills the buckets from the owning memory's full population.
func (ix *alphaIndex) build(items []*ops5.WME) {
	ix.buckets.Reserve(len(items))
	for _, x := range items {
		ix.buckets.Add(ix.key(x), x)
	}
}

// insert adds w to its bucket. items is the owning memory's current
// population (already including w); the buckets are built from it in
// full when the memory first reaches linearProbeMin.
func (ix *alphaIndex) insert(w *ops5.WME, items []*ops5.WME) {
	switch {
	case ix.buckets.Ready():
		ix.buckets.Add(ix.key(w), w)
	case len(items) >= linearProbeMin:
		ix.build(items)
	}
}

func (ix *alphaIndex) remove(w *ops5.WME) {
	if !ix.buckets.Ready() {
		return
	}
	k := ix.key(w)
	prev := int32(-1)
	for i := ix.buckets.Head(k); i >= 0; prev, i = i, ix.buckets.Next(i) {
		if *ix.buckets.At(i) == w {
			ix.buckets.Unlink(k, prev, i)
			return
		}
	}
}

// probe collects the bucket for key k into scratch's storage (grown as
// needed and retained by the caller across probes, so steady-state
// probing does not allocate) and returns the filled slice.
func (ix *alphaIndex) probe(k uint64, scratch *[]*ops5.WME) []*ops5.WME {
	out := (*scratch)[:0]
	for i := ix.buckets.Head(k); i >= 0; i = ix.buckets.Next(i) {
		out = append(out, *ix.buckets.At(i))
	}
	*scratch = out
	return out
}

// betaCol is one column of a beta index key: token position and attr.
type betaCol struct {
	idx  int
	attr sym.ID
}

// betaIndex is a hash index over a beta memory's tokens, keyed by the
// values of cols (the LeftIdx/LeftID columns of one equality spec).
// As with alphaIndex, the buckets stay unbuilt until the memory first
// reaches linearProbeMin tokens.
type betaIndex struct {
	cols    []betaCol
	buckets Buckets[*Token]
}

func (ix *betaIndex) key(tok *Token) uint64 {
	h := ops5.HashSeed
	for _, c := range ix.cols {
		h = ops5.HashValue(h, tok.WMEs[c.idx].GetID(c.attr))
	}
	return h
}

// build fills the buckets from the owning memory's full population.
func (ix *betaIndex) build(tokens []*Token) {
	ix.buckets.Reserve(len(tokens))
	for _, x := range tokens {
		ix.buckets.Add(ix.key(x), x)
	}
}

// insert adds tok to its bucket. tokens is the owning memory's current
// population (already including tok); the buckets are built from it in
// full when the memory first reaches linearProbeMin.
func (ix *betaIndex) insert(tok *Token, tokens []*Token) {
	switch {
	case ix.buckets.Ready():
		ix.buckets.Add(ix.key(tok), tok)
	case len(tokens) >= linearProbeMin:
		ix.build(tokens)
	}
}

func (ix *betaIndex) remove(tok *Token) {
	if !ix.buckets.Ready() {
		return
	}
	k := ix.key(tok)
	prev := int32(-1)
	for i := ix.buckets.Head(k); i >= 0; prev, i = i, ix.buckets.Next(i) {
		if (*ix.buckets.At(i)).EqualTo(tok) {
			ix.buckets.Unlink(k, prev, i)
			return
		}
	}
}

// probe collects the bucket for key k into scratch's storage (see
// alphaIndex.probe) and returns the filled slice.
func (ix *betaIndex) probe(k uint64, scratch *[]*Token) []*Token {
	out := (*scratch)[:0]
	for i := ix.buckets.Head(k); i >= 0; i = ix.buckets.Next(i) {
		out = append(out, *ix.buckets.At(i))
	}
	*scratch = out
	return out
}

// indexFor returns this alpha memory's index for the given equality
// spec, creating (and back-filling) it on first request. Joins with
// identical right-side key columns share one index.
func (am *AlphaMem) indexFor(eq []JoinTest) *alphaIndex {
	attrs := make([]sym.ID, len(eq))
	for i, t := range eq {
		attrs[i] = t.RightID
	}
	for _, ix := range am.indexes {
		if idsEqual(ix.attrs, attrs) {
			return ix
		}
	}
	ix := &alphaIndex{attrs: attrs}
	if len(am.Items) >= linearProbeMin {
		ix.build(am.Items)
	}
	am.indexes = append(am.indexes, ix)
	return ix
}

// indexFor returns this beta memory's index for the given equality
// spec, creating (and back-filling) it on first request.
func (bm *BetaMem) indexFor(eq []JoinTest) *betaIndex {
	cols := make([]betaCol, len(eq))
	for i, t := range eq {
		cols[i] = betaCol{idx: t.LeftIdx, attr: t.LeftID}
	}
	for _, ix := range bm.indexes {
		if colsEqual(ix.cols, cols) {
			return ix
		}
	}
	ix := &betaIndex{cols: cols}
	if len(bm.Tokens) >= linearProbeMin {
		ix.build(bm.Tokens)
	}
	bm.indexes = append(bm.indexes, ix)
	return ix
}

func idsEqual(a, b []sym.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func colsEqual(a, b []betaCol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prepare builds the hash indexes for every two-input node with at
// least one equality test. It runs once, at the first Apply — safe
// because AddProduction rejects further productions after matching
// starts, so the set of key specs is final.
func (n *Network) prepare() {
	if n.prepared {
		return
	}
	n.prepared = true
	for _, j := range n.joins {
		eq, _ := SplitJoinTests(j.Tests)
		if len(eq) == 0 {
			continue
		}
		j.leftHash, j.rightHash = JoinHashFuncs(eq)
		j.rightIdx = j.Right.indexFor(eq)
		j.leftIdx = j.Left.indexFor(eq)
		j.negIndexed = j.Kind == JoinNegative
	}
}

// IndexInfo summarises the hash-index state of a network.
type IndexInfo struct {
	// IndexedJoins and FallbackJoins partition the two-input nodes by
	// whether activations probe a hash bucket or scan linearly.
	IndexedJoins  int
	FallbackJoins int
	// AlphaIndexes and BetaIndexes count distinct (possibly shared)
	// indexes maintained over the memories.
	AlphaIndexes int
	BetaIndexes  int
	// Buckets is the total number of live hash buckets; MaxBucket the
	// largest bucket's population (the residual scan bound).
	Buckets   int
	MaxBucket int
}

// IndexInfo reports the current index topology and occupancy. It
// prepares the network if matching has not started yet.
func (n *Network) IndexInfo() IndexInfo {
	n.prepare()
	var info IndexInfo
	for _, j := range n.joins {
		if j.leftHash != nil {
			info.IndexedJoins++
		} else {
			info.FallbackJoins++
		}
		b, mx := j.negIndex.Stats()
		info.Buckets += b
		if mx > info.MaxBucket {
			info.MaxBucket = mx
		}
	}
	for _, am := range n.alphas {
		info.AlphaIndexes += len(am.indexes)
		for _, ix := range am.indexes {
			b, mx := ix.buckets.Stats()
			info.Buckets += b
			if mx > info.MaxBucket {
				info.MaxBucket = mx
			}
		}
	}
	for _, bm := range n.betas {
		info.BetaIndexes += len(bm.indexes)
		for _, ix := range bm.indexes {
			b, mx := ix.buckets.Stats()
			info.Buckets += b
			if mx > info.MaxBucket {
				info.MaxBucket = mx
			}
		}
	}
	return info
}
