package rete

// Buckets is the one hash-bucket layout every match memory in this
// repository is built on: the serial network's alpha and beta indexes,
// position maps, not-node records and terminal caches, and the parallel
// matcher's lock-striped node memories (internal/prete). A bucket is a
// singly-linked chain through one append-only entry array (int32 links,
// free-listed on removal) hanging off one map[uint64]int32 of chain
// heads, not a per-key slice or nested map: steady-state insertion and
// removal touch only the entry array and the map's inline int32 value,
// so memory upkeep does not allocate, and an entry holds its payload by
// value, so the GC scans one flat array per table.
//
// Keys are Equal-consistent hashes, never injective, so callers walk a
// chain and re-verify each candidate:
//
//	prev := int32(-1)
//	for i := b.Head(k); i >= 0; prev, i = i, b.Next(i) {
//		if b.At(i).w == w {
//			b.Unlink(k, prev, i)
//			break
//		}
//	}
//
// The zero Buckets is empty and ready for use. It is not safe for
// concurrent use; the parallel matcher guards each one with a stripe
// lock.
type Buckets[E any] struct {
	// heads maps a key to its chain's first entry index plus one, so a
	// missing key reads as the zero value.
	heads   map[uint64]int32
	entries []bucketEntry[E]
	// free is the first free-listed entry index plus one (0: none);
	// free entries are zeroed and reuse next as the free link.
	free int32
}

type bucketEntry[E any] struct {
	val  E
	next int32 // next entry in the chain (or free list); -1 ends it
}

// Reserve readies the table for about n entries. Callers that build a
// table lazily use Ready to tell "not built" from "built and empty".
func (b *Buckets[E]) Reserve(n int) {
	b.heads = make(map[uint64]int32, n)
	b.entries = make([]bucketEntry[E], 0, 2*n)
}

// Ready reports whether the table has been built (Reserve or Add).
func (b *Buckets[E]) Ready() bool { return b.heads != nil }

// Head returns the first entry index of key k's chain, or -1.
func (b *Buckets[E]) Head(k uint64) int32 { return b.heads[k] - 1 }

// Next returns the entry index following i in its chain, or -1.
func (b *Buckets[E]) Next(i int32) int32 { return b.entries[i].next }

// At returns entry i's payload. The pointer is valid until the next Add.
func (b *Buckets[E]) At(i int32) *E { return &b.entries[i].val }

// Slots returns the number of entry slots, live and free-listed: a full
// scan visits At(0..Slots()-1) and skips zero payloads.
func (b *Buckets[E]) Slots() int32 { return int32(len(b.entries)) }

// Add links v at the head of key k's chain, reusing a free entry if
// any, and returns its index.
func (b *Buckets[E]) Add(k uint64, v E) int32 {
	if b.heads == nil {
		b.heads = make(map[uint64]int32)
	}
	e := bucketEntry[E]{val: v, next: b.heads[k] - 1}
	i := b.free - 1
	if i >= 0 {
		b.free = b.entries[i].next + 1
		b.entries[i] = e
	} else {
		i = int32(len(b.entries))
		b.entries = append(b.entries, e)
	}
	b.heads[k] = i + 1
	return i
}

// Unlink removes entry i from key k's chain and free-lists it. prev is
// the entry preceding i in the chain walk that found it, -1 when i is
// the head.
func (b *Buckets[E]) Unlink(k uint64, prev, i int32) {
	next := b.entries[i].next
	switch {
	case prev >= 0:
		b.entries[prev].next = next
	case next >= 0:
		b.heads[k] = next + 1
	default:
		delete(b.heads, k)
	}
	b.entries[i] = bucketEntry[E]{next: b.free - 1}
	b.free = i + 1
}

// Stats reports the live bucket count and the longest chain.
func (b *Buckets[E]) Stats() (buckets, maxChain int) {
	for _, head := range b.heads {
		buckets++
		n := 0
		for i := head - 1; i >= 0; i = b.entries[i].next {
			n++
		}
		if n > maxChain {
			maxChain = n
		}
	}
	return buckets, maxChain
}
