package bucket

import (
	"math/rand"
	"testing"
)

// bucketsModel drives a Buckets[int] and a map[uint64][]int reference
// side by side. The reference keeps each chain newest-first, the order
// Add links in.
type bucketsModel struct {
	t    testing.TB
	b    Buckets[int]
	ref  map[uint64][]int
	next int // payloads are unique and non-zero
}

func newBucketsModel(t testing.TB) *bucketsModel {
	return &bucketsModel{t: t, ref: make(map[uint64][]int)}
}

func (m *bucketsModel) add(k uint64) {
	m.next++
	i := m.b.Add(k, m.next)
	if got := *m.b.At(i); got != m.next {
		m.t.Fatalf("Add(%#x) returned entry %d holding %d, want %d", k, i, got, m.next)
	}
	m.ref[k] = append([]int{m.next}, m.ref[k]...)
}

// unlink removes the nth entry of key k's chain (if it is that long),
// and checks that a pointer taken to another live entry beforehand still
// reads that entry afterwards.
func (m *bucketsModel) unlink(k uint64, nth int) {
	chain := m.ref[k]
	if len(chain) == 0 {
		if h := m.b.Head(k); h != -1 {
			m.t.Fatalf("Head(%#x) = %d for a key with no entries", k, h)
		}
		return
	}
	nth %= len(chain)
	var witness *int
	var witnessVal int
	var witnessAt int32
	prev, i := int32(-1), m.b.Head(k)
	for n := 0; n < nth; n++ {
		witness, witnessVal, witnessAt = m.b.At(i), *m.b.At(i), i
		prev, i = i, m.b.Next(i)
	}
	if got := *m.b.At(i); got != chain[nth] {
		m.t.Fatalf("key %#x entry %d holds %d, want %d", k, nth, got, chain[nth])
	}
	m.b.Unlink(k, prev, i)
	if witness != nil && (*witness != witnessVal || witness != m.b.At(witnessAt)) {
		m.t.Fatalf("Unlink moved or rewrote entry %d: %d, want %d", witnessAt, *witness, witnessVal)
	}
	if *m.b.At(i) != 0 {
		m.t.Fatalf("unlinked entry %d not zeroed", i)
	}
	chain = append(chain[:nth:nth], chain[nth+1:]...)
	if len(chain) == 0 {
		delete(m.ref, k)
	} else {
		m.ref[k] = chain
	}
}

// check compares every chain, the entry array's population and Stats
// against the reference, and the head table against its own invariants.
func (m *bucketsModel) check() {
	live, maxChain := 0, 0
	for k, chain := range m.ref {
		n := 0
		for i := m.b.Head(k); i >= 0; i = m.b.Next(i) {
			if n >= len(chain) || *m.b.At(i) != chain[n] {
				m.t.Fatalf("key %#x: entry %d is %d, reference chain %v", k, n, *m.b.At(i), chain)
			}
			n++
		}
		if n != len(chain) {
			m.t.Fatalf("key %#x: chain has %d entries, want %d", k, n, len(chain))
		}
		live += n
		maxChain = max(maxChain, n)
	}
	stored := 0
	for i := int32(0); i < m.b.Slots(); i++ {
		if *m.b.At(i) != 0 {
			stored++
		}
	}
	if stored != live {
		m.t.Fatalf("entry array holds %d live payloads, want %d", stored, live)
	}
	if buckets, longest := m.b.Stats(); buckets != len(m.ref) || longest != maxChain {
		m.t.Fatalf("Stats() = %d, %d; want %d, %d", buckets, longest, len(m.ref), maxChain)
	}
	// No tombstones: exactly the live keys occupy slots, and the table
	// never exceeds its load bound.
	occupied := 0
	for _, s := range m.b.slots {
		if s.head != 0 {
			occupied++
		}
	}
	if occupied != len(m.ref) || occupied != m.b.keys {
		m.t.Fatalf("%d occupied slots, keys = %d, want %d", occupied, m.b.keys, len(m.ref))
	}
	if occupied*maxLoadDen > len(m.b.slots)*maxLoadNum {
		m.t.Fatalf("%d of %d slots occupied, over the load bound", occupied, len(m.b.slots))
	}
}

// run interprets data as a walk: each op is three bytes — what to do,
// which key (from a small domain, so chains and probe runs form), and
// which chain entry.
func (m *bucketsModel) run(data []byte) {
	for ; len(data) >= 3; data = data[3:] {
		k := uint64(data[1]) * 0x0101010101010101
		switch op := data[0] % 8; {
		case op < 4:
			m.add(k)
		case op < 7:
			m.unlink(k, int(data[2]))
		default:
			m.check()
		}
	}
	m.check()
}

func TestBucketsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newBucketsModel(t)
		// Grow with chains live, churn at size, then drain to empty.
		for phase, bias := range []int{6, 4, 1} {
			for step := 0; step < 600; step++ {
				k := uint64(rng.Intn(150)) * 0x9e3779b1
				if rng.Intn(8) < bias {
					m.add(k)
				} else {
					m.unlink(k, rng.Intn(4))
				}
				if step%97 == 0 {
					m.check()
				}
			}
			m.check()
			if phase == 0 && len(m.b.slots) <= minSlots {
				t.Fatalf("seed %d: table never grew", seed)
			}
		}
		for k := range m.ref {
			for len(m.ref[k]) > 0 {
				m.unlink(k, 0)
			}
		}
		m.check()
		if m.b.keys != 0 {
			t.Fatalf("seed %d: %d keys left in a drained table", seed, m.b.keys)
		}
	}
}

// keysHomedAt returns n distinct keys whose home slot in b's current
// table is slot.
func keysHomedAt[E any](b *Buckets[E], slot, n int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if int(k*fibMul>>b.shift) == slot {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestBucketsBackwardShiftWraps vacates the first slot of a probe run
// that starts at the table's last slot and continues from slot 0, with a
// key sitting at its own home in the middle of the run: the shift has to
// carry keys back across the wrap, step over the key that is already
// home, and still bring forward the displaced key behind it.
func TestBucketsBackwardShiftWraps(t *testing.T) {
	m := newBucketsModel(t)
	m.add(0) // build the minimal table
	m.unlink(0, 0)
	last := len(m.b.slots) - 1
	tail := keysHomedAt(&m.b, last, 3)
	front := keysHomedAt(&m.b, 0, 1)[0]
	anchor := keysHomedAt(&m.b, 2, 1)[0]
	for _, k := range []uint64{tail[0], tail[1], front, anchor, tail[2]} {
		m.add(k)
		m.add(k)
	}
	layout := func() [5]uint64 {
		var keys [5]uint64
		for i, slot := range []int{last, 0, 1, 2, 3} {
			if s := m.b.slots[slot]; s.head != 0 {
				keys[i] = s.key
			}
		}
		return keys
	}
	if got, want := layout(), [5]uint64{tail[0], tail[1], front, anchor, tail[2]}; got != want || len(m.b.slots)-1 != last {
		t.Fatalf("layout %x in %d slots, want %x in %d", got, len(m.b.slots), want, last+1)
	}
	m.check()
	m.unlink(tail[0], 1)
	m.unlink(tail[0], 0)
	if got, want := layout(), [5]uint64{tail[1], front, tail[2], anchor, 0}; got != want {
		t.Fatalf("layout after vacating the last slot %x, want %x", got, want)
	}
	m.check()
	for _, k := range []uint64{anchor, tail[1], tail[2], front} {
		m.unlink(k, 0)
		m.unlink(k, 0)
		m.check()
	}
	if m.b.keys != 0 {
		t.Fatalf("%d keys left", m.b.keys)
	}
}

// FuzzBuckets walks the table and the reference through an arbitrary op
// string (see bucketsModel.run).
func FuzzBuckets(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 4, 1, 1, 7, 0, 0, 4, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		newBucketsModel(t).run(data)
	})
}

// TestBucketsSteadyStateAllocs pins the layout's point: once the table
// and entry array have reached their working size, Add and Unlink touch
// only slots and entries that exist.
func TestBucketsSteadyStateAllocs(t *testing.T) {
	var b Buckets[int]
	for k := uint64(0); k < 100; k++ {
		b.Add(k*0x9e3779b1, int(k)+1)
	}
	k := uint64(1000) * 0x9e3779b1
	b.Unlink(k, -1, b.Add(k, 1))
	allocs := testing.AllocsPerRun(1000, func() {
		b.Unlink(k, -1, b.Add(k, 1))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add+Unlink allocates %v times", allocs)
	}
}
