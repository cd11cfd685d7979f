package prete

import (
	"runtime"
	"testing"

	"repro/internal/ops5"
	"repro/internal/rete"
)

// chainFixture is a three-CE chain joined on one variable, its last
// join's left memory (which stores the two-WME tokens [a b]) and one
// matching WME per CE.
type chainFixture struct {
	m          *Matcher
	w          *worker
	g          *group
	last       *pnode
	wa, wb, wc *ops5.WME
}

func newChainFixture(t *testing.T) *chainFixture {
	t.Helper()
	p, err := ops5.ParseProduction("(p chain (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithConfig([]*ops5.Production{p}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := &chainFixture{m: m, w: &m.sched.workers[0], last: &m.nodes[len(m.nodes)-1]}
	f.g = f.last.grp
	if f.g.leftHash == nil || len(f.last.terminals) != 1 {
		t.Fatal("the chain's last join is not keyed or feeds no terminal")
	}
	for i, w := range []**ops5.WME{&f.wa, &f.wb, &f.wc} {
		*w = ops5.NewWME(string(rune('a'+i)), "v", 7)
		(*w).TimeTag = i + 1
	}
	return f
}

// extend returns a new token: t with w appended.
func extend(t *rete.Token, w *ops5.WME) *rete.Token {
	nt := &rete.Token{}
	t.ExtendInto(nt, w)
	return nt
}

// leftBuckets counts the live buckets of the group's left memory.
func (f *chainFixture) leftBuckets() (n int) {
	for i := range f.g.stripes {
		b, _ := f.g.stripes[i].left.Stats()
		n += b
	}
	return n
}

// TestEarlyDeleteAnnihilatesLateInsert drives the one case in which a
// delete builds the token it names: the pair (base, WME) reaches a left
// memory that holds no token for it, because the insert it undoes has
// not arrived yet. The pending cancel it files must annihilate that
// insert — even though the insert's token would join the c element
// already in the right memory — and leave the memory empty.
func TestEarlyDeleteAnnihilatesLateInsert(t *testing.T) {
	f := newChainFixture(t)
	m, w := f.m, f.w
	m.runRight(f.last, f.wc, ops5.Insert, w)
	base := extend(&rete.Token{}, f.wa)

	m.runLeft(f.g, base, f.wb, ops5.Delete, w)
	if got := f.leftBuckets(); got != 1 {
		t.Fatalf("after the early delete: %d live left buckets, want the pending cancel's 1", got)
	}
	late := extend(base, f.wb)
	late.Hold(1) // the reference propagate's emit would carry
	m.runLeft(f.g, late, nil, ops5.Insert, w)
	if got := f.leftBuckets(); got != 0 {
		t.Errorf("after the late insert: %d live left buckets, want 0", got)
	}
	if len(w.retired) != 2 || w.retired[0] != late || w.retired[1] == late {
		t.Errorf("retired %v, want the late insert's token and then the pending cancel's", w.retired)
	}
	if len(w.pending) != 0 {
		t.Errorf("%d conflict-set deltas emitted, want none", len(w.pending))
	}
	m.mu.Lock()
	w.foldInto(&m.lanes[0], m.prof)
	m.mu.Unlock()
	if got := m.Stats().Cancellations; got != 2 {
		t.Errorf("Cancellations = %d, want 2 (the early delete and the insert it annihilated)", got)
	}
}

// TestDeleteResolvesStoredToken deletes a token that the left memory
// holds: the delete names it as (base, WME), finds the stored token, and
// emits its own delete as the pair (stored token, c element) — without
// allocating, once the lane's scratch has grown.
func TestDeleteResolvesStoredToken(t *testing.T) {
	f := newChainFixture(t)
	m, w := f.m, f.w
	m.runRight(f.last, f.wc, ops5.Insert, w)
	base := extend(&rete.Token{}, f.wa)
	stored := extend(base, f.wb)
	// One cycle first, so that the lane's delta and retired buffers have
	// grown. Each insert carries the reference propagate's emit would.
	stored.Hold(1)
	m.runLeft(f.g, stored, nil, ops5.Insert, w)
	m.runLeft(f.g, base, f.wb, ops5.Delete, w)
	w.pending = w.pending[:0]
	w.retired = w.retired[:0]

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	const runs = 20
	var allocs uint64
	for i := 0; i < runs; i++ {
		stored.Hold(1)
		m.runLeft(f.g, stored, nil, ops5.Insert, w)
		if len(w.pending) != 1 {
			t.Fatalf("insert emitted %d deltas, want 1", len(w.pending))
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		m.runLeft(f.g, base, f.wb, ops5.Delete, w)
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before

		if len(w.pending) != 2 {
			t.Fatalf("delete emitted %d deltas, want 1", len(w.pending)-1)
		}
		ins, del := w.pending[0], w.pending[1]
		if del.tok != stored || del.wme != f.wc || del.dir != ops5.Delete {
			t.Fatalf("delete delta names (%v, %v), want the stored token %v and the c element", del.tok, del.wme, stored)
		}
		if ins.key != del.key || deltaCmp(ins, del) != 0 {
			t.Fatal("the insert and the delete of one instantiation do not merge")
		}
		if got := f.leftBuckets(); got != 0 {
			t.Fatalf("%d live left buckets after the delete, want 0", got)
		}
		if len(w.retired) != 1 || w.retired[0] != stored {
			t.Fatalf("retired %v, want the stored token once", w.retired)
		}
		clear(w.pending)
		w.pending = w.pending[:0]
		w.retired = w.retired[:0]
	}
	if allocs != 0 {
		t.Errorf("%d allocations over %d deletes of a stored token, want 0", allocs, runs)
	}
}
