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
	mid, last  *pnode
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
	n := len(m.nodes)
	f := &chainFixture{m: m, w: &m.sched.workers[0], mid: &m.nodes[n-2], last: &m.nodes[n-1]}
	f.g = f.last.grp
	if f.g.leftHash == nil || len(f.last.terminals) != 1 || &f.mid.down[0] != f.g {
		t.Fatal("the chain's last join is not keyed, feeds no terminal or is not fed by the middle one")
	}
	for i, w := range []**ops5.WME{&f.wa, &f.wb, &f.wc} {
		*w = ops5.NewWME(string(rune('a'+i)), "v", 7)
		(*w).TimeTag = i + 1
	}
	return f
}

// ab returns the token [a b] as the middle join builds it for the last
// join's left memory, listed under no parent and no right entry.
func (f *chainFixture) ab() *token {
	base := &rete.Token{}
	a := &rete.Token{}
	base.ExtendInto(a, f.wa)
	tok := &token{node: f.mid, ridx: -1}
	a.ExtendInto(&tok.Token, f.wb)
	tok.key = f.g.leftHash(&tok.Token)
	return tok
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
// token's delete reaches its left memory ahead of its insert, as it can
// when another lane removed it: the delete files nothing and marks the
// token a pending cancel, and the late insert annihilates with it —
// even though the token would join the c element already in the right
// memory — leaving the memory empty and retiring the token once.
func TestEarlyDeleteAnnihilatesLateInsert(t *testing.T) {
	f := newChainFixture(t)
	m, w := f.m, f.w
	m.runRight(f.last, f.wc, ops5.Insert, w)
	tok := f.ab()

	m.runLeft(f.g, tok, ops5.Delete, w)
	if got := f.leftBuckets(); got != 0 || tok.slot != -1 {
		t.Fatalf("after the early delete: %d live left buckets and slot %d, want none and the pending cancel's -1", got, tok.slot)
	}
	m.runLeft(f.g, tok, ops5.Insert, w)
	if got := f.leftBuckets(); got != 0 {
		t.Errorf("after the late insert: %d live left buckets, want 0", got)
	}
	if len(w.retired) != 1 || w.retired[0] != tok {
		t.Errorf("retired %v, want the token once", w.retired)
	}
	if len(w.pending) != 0 || tok.kids != nil {
		t.Errorf("%d conflict-set deltas emitted and kids %v, want none", len(w.pending), tok.kids)
	}
	m.mu.Lock()
	w.foldInto(&m.lanes[0], m.prof)
	m.mu.Unlock()
	if got := m.Stats().Cancellations; got != 2 {
		t.Errorf("Cancellations = %d, want 2 (the early delete and the insert it annihilated)", got)
	}
}

// TestDeleteResolvesStoredToken deletes a token that the left memory
// holds: the delete finds its entry through the token, removes the leaf
// its insert built with the c element — announcing the instantiation
// its insert announced — and retires both, with no join test, no chain
// step and, once the lane's buffers have grown, no allocation.
func TestDeleteResolvesStoredToken(t *testing.T) {
	f := newChainFixture(t)
	m, w := f.m, f.w
	m.runRight(f.last, f.wc, ops5.Insert, w)
	stored := f.ab()
	cycle := func() {
		m.runLeft(f.g, stored, ops5.Insert, w)
		m.runLeft(f.g, stored, ops5.Delete, w)
	}
	// One cycle first, so that the lane's delta and retired buffers have
	// grown.
	cycle()
	w.pending, w.retired = w.pending[:0], w.retired[:0]
	before := w.work

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	const runs = 20
	var allocs uint64
	for i := 0; i < runs; i++ {
		m.runLeft(f.g, stored, ops5.Insert, w)
		if len(w.pending) != 1 || stored.kids == nil {
			t.Fatalf("insert emitted %d deltas and built kids %v, want one of each", len(w.pending), stored.kids)
		}
		leaf := stored.kids
		runtime.ReadMemStats(&ms)
		was := ms.Mallocs
		m.runLeft(f.g, stored, ops5.Delete, w)
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - was

		if len(w.pending) != 2 {
			t.Fatalf("delete emitted %d deltas, want 1", len(w.pending)-1)
		}
		ins, del := w.pending[0], w.pending[1]
		if del.tok != leaf || del.dir != ops5.Delete {
			t.Fatalf("delete delta names %v, want the leaf %v its insert built", del.tok, leaf)
		}
		if ins.key != del.key || deltaCmp(ins, del) != 0 {
			t.Fatal("the insert and the delete of one instantiation do not merge")
		}
		if got := f.leftBuckets(); got != 0 || stored.kids != nil {
			t.Fatalf("%d live left buckets and kids %v after the delete, want none", got, stored.kids)
		}
		if len(w.retired) != 2 || w.retired[0] != leaf || w.retired[1] != stored {
			t.Fatalf("retired %v, want the leaf and then the stored token", w.retired)
		}
		clear(w.pending)
		w.pending, w.retired = w.pending[:0], w.retired[:0]
		stored.slot = 0 // what build does to a recycled token
	}
	if allocs != 0 {
		t.Errorf("%d allocations over %d deletes of a stored token, want 0", allocs, runs)
	}
	if d := w.work.JoinTests[ops5.Delete] - before.JoinTests[ops5.Delete]; d != 0 {
		t.Errorf("%d join tests on delete, want 0", d)
	}
	if d := w.work.LeftSteps[ops5.Delete] - before.LeftSteps[ops5.Delete]; d != 0 {
		t.Errorf("%d left chain steps on delete, want 0", d)
	}
}
