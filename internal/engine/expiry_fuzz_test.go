package engine_test

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ops5"
	"repro/internal/sym"
)

// refTTL is the reference model of the expiry index: a container/heap
// min-heap of (deadline, tag) entries beside a tag -> deadline map that
// cancels an entry when its element is retracted (the map entry goes at
// once, the heap entry when it surfaces). The engine's index must
// expire the same tags in the same batches and report the same table.
type refTTL struct {
	h         refHeap
	deadlines map[int]int64
}

type refEntry struct {
	deadline int64
	tag      int
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].tag < h[j].tag
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func newRefTTL() *refTTL { return &refTTL{deadlines: make(map[int]int64)} }

func (x *refTTL) add(tag int, deadline int64) {
	x.deadlines[tag] = deadline
	heap.Push(&x.h, refEntry{deadline: deadline, tag: tag})
}

// track is the engine's trackTTL rule over one committed batch.
func (x *refTTL) track(changes []ops5.Change, clock int64) {
	for _, ch := range changes {
		switch ch.Kind {
		case ops5.Delete:
			delete(x.deadlines, ch.WME.TimeTag)
		case ops5.Insert:
			if v := ch.WME.GetID(ops5.TTLAttr); v.Kind == ops5.NumValue {
				n := int64(v.Num)
				if n < 1 {
					n = 1
				}
				x.add(ch.WME.TimeTag, clock+n)
			}
		}
	}
}

// due pops the live entries with deadline <= clock, in (deadline, tag)
// order.
func (x *refTTL) due(clock int64) []int {
	var tags []int
	for len(x.h) > 0 && x.h[0].deadline <= clock {
		e := heap.Pop(&x.h).(refEntry)
		if d, ok := x.deadlines[e.tag]; ok && d == e.deadline {
			delete(x.deadlines, e.tag)
			tags = append(tags, e.tag)
		}
	}
	return tags
}

func (x *refTTL) table() (tags []int, deadlines []int64) {
	if len(x.deadlines) == 0 {
		return nil, nil
	}
	for tag := range x.deadlines {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	for _, tag := range tags {
		deadlines = append(deadlines, x.deadlines[tag])
	}
	return tags, deadlines
}

// expiryProgram cycles forever: tick fires on every Step, so each Step
// advances the clock one tick, and drop retracts events of kind 7 by
// rule whenever it wins conflict resolution instead.
const expiryProgram = `
(literalize ev k __ttl)
(literalize tick n)
(p tick
    (tick ^n <n>)
  -->
    (modify 1 ^n (compute <n> + 1)))
(p drop
    (ev ^k 7)
    (tick)
  -->
    (remove 1))
`

// expiryRun drives one engine and the reference model through the same
// operations and compares them after each.
type expiryRun struct {
	t       *testing.T
	sys     *core.System
	ref     *refTTL
	expired int             // the reference's count of expired elements
	batches [][]ops5.Change // what the sink saw during the current operation
}

func (r *expiryRun) attach(sys *core.System) {
	r.sys = sys
	sys.Engine.Sink = func(changes []ops5.Change, _ []string) {
		// The engine reuses its expiry batch; a sink that keeps one copies.
		r.batches = append(r.batches, append([]ops5.Change(nil), changes...))
	}
}

func (r *expiryRun) events() []*ops5.WME { return r.sys.WM.OfClass("ev") }

// apply commits changes as one external batch.
func (r *expiryRun) apply(changes ...ops5.Change) {
	r.batches = nil
	r.sys.ApplyChanges(changes)
	if len(r.batches) != 1 {
		r.t.Fatalf("apply: sink saw %d batches, want 1", len(r.batches))
	}
	r.ref.track(r.batches[0], r.sys.Engine.Clock)
}

// wantExpiry checks that batch retracts exactly the tags the reference
// finds due at clock, in its order.
func (r *expiryRun) wantExpiry(op string, batch []ops5.Change, clock int64) {
	want := r.ref.due(clock)
	var got []int
	for _, ch := range batch {
		if ch.Kind != ops5.Delete {
			r.t.Fatalf("%s: expiry batch holds an insert of %v", op, ch.WME)
		}
		got = append(got, ch.WME.TimeTag)
	}
	if !reflect.DeepEqual(got, want) {
		r.t.Fatalf("%s at clock %d: expired tags %v, reference %v", op, clock, got, want)
	}
	r.expired += len(want)
	r.ref.track(batch, clock)
}

func (r *expiryRun) advance(to int64) {
	eng := r.sys.Engine
	from := eng.Clock
	r.batches = nil
	n := eng.AdvanceClock(to)
	switch {
	case to <= from:
		if n != 0 || len(r.batches) != 0 || eng.Clock != from {
			r.t.Fatalf("AdvanceClock(%d) at %d: expired %d, %d batches, clock %d", to, from, n, len(r.batches), eng.Clock)
		}
	case len(r.batches) != 1:
		r.t.Fatalf("AdvanceClock(%d) at %d: sink saw %d batches, want 1", to, from, len(r.batches))
	default:
		r.wantExpiry("AdvanceClock", r.batches[0], to)
		if n != len(r.batches[0]) {
			r.t.Fatalf("AdvanceClock(%d) reported %d expiries, retracted %d", to, n, len(r.batches[0]))
		}
	}
}

func (r *expiryRun) step() {
	r.batches = nil
	ok, err := r.sys.Engine.Step()
	if err != nil || !ok {
		r.t.Fatalf("Step: fired %v, error %v; tick always fires", ok, err)
	}
	clock := r.sys.Engine.Clock
	if len(r.batches) == 0 || len(r.batches) > 2 {
		r.t.Fatalf("Step: sink saw %d batches, want the firing's and at most one expiry", len(r.batches))
	}
	r.ref.track(r.batches[0], clock)
	var expiry []ops5.Change
	if len(r.batches) == 2 {
		expiry = r.batches[1]
	}
	r.wantExpiry("Step", expiry, clock)
}

// restart snapshots the engine into a fresh one, as durable recovery
// does: elements, clock, expired count and the expiry table. The
// reference restarts from its own table.
func (r *expiryRun) restart() {
	old := r.sys.Engine
	tags, deadlines := old.Expiries()
	sys, err := core.NewSystem(expiryProgram, core.Options{})
	if err != nil {
		r.t.Fatal(err)
	}
	if err := sys.Engine.Restore(r.sys.WM.Elements(), r.sys.WM.NextTag(), nil); err != nil {
		r.t.Fatal(err)
	}
	sys.Engine.Clock, sys.Engine.Expired = old.Clock, old.Expired
	sys.Engine.RestoreExpiries(tags, deadlines)
	r.attach(sys)
	ref := newRefTTL()
	rtags, rdeadlines := r.ref.table()
	for i, tag := range rtags {
		ref.add(tag, rdeadlines[i])
	}
	r.ref = ref
}

func (r *expiryRun) check(op byte) {
	eng := r.sys.Engine
	if got, want := eng.PendingExpiries(), len(r.ref.deadlines); got != want {
		r.t.Fatalf("after op %d: PendingExpiries %d, reference %d", op, got, want)
	}
	gt, gd := eng.Expiries()
	wt, wd := r.ref.table()
	if !reflect.DeepEqual(gt, wt) || !reflect.DeepEqual(gd, wd) {
		r.t.Fatalf("after op %d: Expiries %v %v, reference %v %v", op, gt, gd, wt, wd)
	}
	if eng.Expired != r.expired {
		r.t.Fatalf("after op %d: Expired %d, reference %d", op, eng.Expired, r.expired)
	}
}

// event builds an ev fact of kind k, with ttl as its ^__ttl when ttl is
// not nil.
func event(k int, ttl any) *ops5.WME {
	if ttl == nil {
		return ops5.NewWME("ev", "k", float64(k))
	}
	return ops5.NewWME("ev", "k", float64(k), "__ttl", ttl)
}

// runExpiry reads ops as (opcode, argument) byte pairs and applies them
// to an engine and the reference model, comparing after each: inserts
// with a ^__ttl (-4 to 19, so also <= 0), without one or with a symbol
// there; retracts, a retract of an element inserted in the same batch,
// and modifies as delete + insert; clock advances, stale ones included;
// Steps; and restarts from a snapshot.
func runExpiry(t *testing.T, ops []byte) {
	sys, err := core.NewSystem(expiryProgram, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := &expiryRun{t: t, ref: newRefTTL()}
	r.attach(sys)
	r.apply(ops5.Change{Kind: ops5.Insert, WME: ops5.NewWME("tick", "n", 0.0)})
	for i := 0; i+1 < len(ops) && i < 2*512; i += 2 {
		op, arg := ops[i]%8, int(ops[i+1])
		switch op {
		case 0, 1:
			r.apply(ops5.Change{Kind: ops5.Insert, WME: event(arg%9, float64(arg%24-4))})
		case 2:
			var ttl any
			if arg%4 == 0 {
				ttl = "soon" // a symbol: not an event
			}
			r.apply(ops5.Change{Kind: ops5.Insert, WME: event(arg%9, ttl)})
		case 3:
			if evs := r.events(); len(evs) > 0 && arg%5 != 0 {
				r.apply(ops5.Change{Kind: ops5.Delete, WME: evs[arg%len(evs)]})
			} else {
				w := event(arg%9, float64(arg%6))
				r.apply(ops5.Change{Kind: ops5.Insert, WME: w}, ops5.Change{Kind: ops5.Delete, WME: w})
			}
		case 4:
			if evs := r.events(); len(evs) > 0 {
				w := evs[arg%len(evs)]
				next := new(ops5.WME)
				w.AppendWithUpdates(next, nil, []ops5.Field{{Attr: sym.Intern("k"), Val: ops5.Num(float64((arg + 1) % 9))}})
				r.apply(ops5.Change{Kind: ops5.Delete, WME: w}, ops5.Change{Kind: ops5.Insert, WME: next})
			}
		case 5:
			r.advance(sys.Engine.Clock + int64(arg%10) - 2)
		case 6:
			r.step()
		case 7:
			r.restart()
		}
		sys = r.sys
		r.check(op)
	}
}

func FuzzExpiry(f *testing.F) {
	f.Add([]byte{0, 5, 0, 30, 5, 9, 6, 0, 6, 0, 7, 0, 5, 9, 5, 9})
	f.Add([]byte{1, 4, 1, 4, 2, 1, 3, 1, 4, 2, 6, 0, 6, 0, 5, 7, 7, 0, 6, 0, 5, 9})
	f.Add([]byte{0, 16, 3, 5, 3, 10, 4, 0, 4, 3, 7, 0, 6, 0, 6, 0, 6, 0})
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 4; n++ {
		ops := make([]byte, 400)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(runExpiry)
}
