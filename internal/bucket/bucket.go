// Package bucket holds the one hash-bucket table under the match
// memories (internal/rete, internal/prete) and the conflict set
// (internal/conflict). It imports nothing of theirs.
package bucket

import "math/bits"

// Buckets is the one hash-bucket layout every match memory in this
// repository is built on: the serial network's alpha and beta indexes,
// position maps, not-node records and terminal caches, the parallel
// matcher's lock-striped node memories, and the conflict set's entries.
// A bucket is a singly-linked chain through one append-only entry array
// (int32 links, free-listed on removal) hanging off an open-addressed
// table of chain heads, not a per-key slice or nested map: steady-state
// insertion and removal touch only the entry array and one head slot, so
// memory upkeep does not allocate, and an entry holds its payload by
// value, so the GC scans one flat array per table.
//
// The head table is the table's own, not a Go map, because every key it
// sees is already a hash: a slot is {key, head}, a key's home slot is
// the top bits of a Fibonacci multiply of the key (no second hash
// function), collisions probe linearly, and removing a key shifts the
// run behind it back over the hole, so there are no tombstones and a
// table that churns forever probes no further than one that only grew.
// Head, Add and Unlink each walk one probe sequence.
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
	// slots is the head table: nil or a power of two long, at most
	// maxLoadNum/maxLoadDen full, so a probe always ends at an empty
	// slot. shift is 64 - log2(len(slots)).
	slots []headSlot
	shift uint8
	keys  int // occupied slots

	entries []bucketEntry[E]
	// free is the first free-listed entry index plus one (0: none);
	// free entries are zeroed and reuse next as the free link.
	free int32
}

// headSlot is one head-table slot: a key and its chain's first entry
// index plus one, so the zero slot is an empty one.
type headSlot struct {
	key  uint64
	head int32
}

type bucketEntry[E any] struct {
	val  E
	next int32 // next entry in the chain (or free list); -1 ends it
}

const (
	minSlots = 8
	// The head table doubles when an Add would leave it more than
	// maxLoadNum/maxLoadDen full.
	maxLoadNum, maxLoadDen = 3, 4
	// fibMul is 2^64 divided by the golden ratio: multiplying by it
	// spreads keys that differ in any bits over the product's top bits.
	fibMul = 0x9E3779B97F4A7C15
)

// Head returns the first entry index of key k's chain, or -1.
func (b *Buckets[E]) Head(k uint64) int32 {
	if b.slots == nil {
		return -1
	}
	mask := len(b.slots) - 1
	for i := int(k * fibMul >> b.shift); ; i = (i + 1) & mask {
		s := &b.slots[i]
		if s.head == 0 || s.key == k {
			return s.head - 1
		}
	}
}

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
	if (b.keys+1)*maxLoadDen > len(b.slots)*maxLoadNum {
		b.grow()
	}
	mask := len(b.slots) - 1
	at := int(k * fibMul >> b.shift)
	for b.slots[at].head != 0 && b.slots[at].key != k {
		at = (at + 1) & mask
	}
	s := &b.slots[at]
	e := bucketEntry[E]{val: v, next: s.head - 1}
	i := b.free - 1
	if i >= 0 {
		b.free = b.entries[i].next + 1
		b.entries[i] = e
	} else {
		i = int32(len(b.entries))
		b.entries = append(b.entries, e)
	}
	if s.head == 0 {
		s.key = k
		b.keys++
	}
	s.head = i + 1
	return i
}

// grow doubles the head table (or builds the first one) and re-places
// every key. Entries do not move.
func (b *Buckets[E]) grow() {
	old := b.slots
	n := max(minSlots, 2*len(old))
	b.slots = make([]headSlot, n)
	b.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, s := range old {
		if s.head == 0 {
			continue
		}
		i := int(s.key * fibMul >> b.shift)
		for b.slots[i].head != 0 {
			i = (i + 1) & mask
		}
		b.slots[i] = s
	}
}

// Unlink removes entry i from key k's chain and free-lists it. prev is
// the entry preceding i in the chain walk that found it, -1 when i is
// the head.
func (b *Buckets[E]) Unlink(k uint64, prev, i int32) {
	next := b.entries[i].next
	if prev >= 0 {
		b.entries[prev].next = next
	} else {
		mask := len(b.slots) - 1
		at := int(k * fibMul >> b.shift)
		for b.slots[at].key != k {
			at = (at + 1) & mask
		}
		if next >= 0 {
			b.slots[at].head = next + 1
		} else {
			b.vacate(at)
		}
	}
	b.entries[i] = bucketEntry[E]{next: b.free - 1}
	b.free = i + 1
}

// vacate empties slot at by backward shift: each later slot of the same
// probe run whose key's home is at or before the hole moves into it, the
// hole moves to where that key was, and the run's last hole is cleared.
// Every key stays reachable from its home without crossing an empty
// slot, which is all a probe relies on.
func (b *Buckets[E]) vacate(at int) {
	mask := len(b.slots) - 1
	for j := (at + 1) & mask; b.slots[j].head != 0; j = (j + 1) & mask {
		home := int(b.slots[j].key * fibMul >> b.shift)
		// j's key may move iff the hole lies within its probe path,
		// i.e. is no further from j (going backwards, cyclically) than
		// j's home is.
		if (j-at)&mask <= (j-home)&mask {
			b.slots[at] = b.slots[j]
			at = j
		}
	}
	b.slots[at] = headSlot{}
	b.keys--
}

// Chains calls f with each live key and the length of its chain.
func (b *Buckets[E]) Chains(f func(k uint64, n int)) {
	for _, s := range b.slots {
		if s.head == 0 {
			continue
		}
		n := 0
		for i := s.head - 1; i >= 0; i = b.entries[i].next {
			n++
		}
		f(s.key, n)
	}
}

// Stats reports the live bucket count and the longest chain.
func (b *Buckets[E]) Stats() (buckets, maxChain int) {
	b.Chains(func(_ uint64, n int) { maxChain = max(maxChain, n) })
	return b.keys, maxChain
}
