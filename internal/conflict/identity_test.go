package conflict

// In-package tests of the hash-keyed set: they call insert, remove and
// markFired with identity hashes of their own choosing to put unlike
// instantiations on one chain, which no search over 64-bit folds will do.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ops5"
)

// refSet is the conflict set as it was keyed before: a map from
// Instantiation.Key strings to entries, ordered by the same rules. The
// differential test holds the hash-keyed set to it.
type refSet struct {
	strategy Strategy
	items    map[string]*refEntry
}

type refEntry struct {
	inst  *ops5.Instantiation
	fired bool
}

func (r *refSet) insert(in *ops5.Instantiation) {
	if _, ok := r.items[in.Key()]; !ok {
		r.items[in.Key()] = &refEntry{inst: in}
	}
}

func (r *refSet) remove(in *ops5.Instantiation) { delete(r.items, in.Key()) }

func (r *refSet) markFired(key string) {
	if e, ok := r.items[key]; ok {
		e.fired = true
	}
}

func (r *refSet) firedKeys() []string {
	var keys []string
	for k, e := range r.items {
		if e.fired {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// better orders two instantiations from their definitions, caching
// nothing: MEA's goal tag, recency over descending tags, specificity,
// production order, key.
func (r *refSet) better(a, b *ops5.Instantiation) bool {
	if r.strategy == MEA && meaTag(a.WMEs) != meaTag(b.WMEs) {
		return meaTag(a.WMEs) > meaTag(b.WMEs)
	}
	at, bt := sortedTagsDesc(a.WMEs, nil), sortedTagsDesc(b.WMEs, nil)
	for i := 0; i < len(at) && i < len(bt); i++ {
		if at[i] != bt[i] {
			return at[i] > bt[i]
		}
	}
	if len(at) != len(bt) {
		return len(at) > len(bt)
	}
	if sa, sb := specificity(a.Production), specificity(b.Production); sa != sb {
		return sa > sb
	}
	if a.Production.Order != b.Production.Order {
		return a.Production.Order < b.Production.Order
	}
	return a.Key() < b.Key()
}

func (r *refSet) ordered(unfiredOnly bool) []*ops5.Instantiation {
	var out []*ops5.Instantiation
	for _, e := range r.items {
		if !unfiredOnly || !e.fired {
			out = append(out, e.inst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return r.better(out[i], out[j]) })
	return out
}

func (r *refSet) selectNext() *ops5.Instantiation {
	if unfired := r.ordered(true); len(unfired) > 0 {
		r.items[unfired[0].Key()].fired = true
		return unfired[0]
	}
	return nil
}

// instIdentity is the identity hash of an instantiation's match.
func instIdentity(in *ops5.Instantiation) uint64 { return identity(in.Production, in.WMEs) }

// testProductions returns productions that differ in every feature the
// ordering and the identity look at: LHS length (one past the inline
// tag array), negated positions, specificity, load order, and names
// that are prefixes of one another.
func testProductions() []*ops5.Production {
	shape := func(name string, order int, negated []bool, tests int) *ops5.Production {
		p := &ops5.Production{Name: name, Order: order}
		for i, neg := range negated {
			ce := &ops5.CondElement{Class: "c", Negated: neg}
			if i == 0 {
				for t := 0; t < tests; t++ {
					ce.Tests = append(ce.Tests, ops5.AttrTest{Attr: "a",
						Terms: []ops5.Term{{Kind: ops5.TermConst, Val: ops5.Num(float64(t))}}})
				}
			}
			p.LHS = append(p.LHS, ce)
		}
		return p
	}
	pos := func(n int) []bool { return make([]bool, n) }
	return []*ops5.Production{
		shape("p", 0, pos(1), 0),
		shape("p1", 1, pos(2), 0),
		shape("p12", 2, pos(2), 1),
		shape("q", 3, []bool{false, true, false}, 0),
		shape("q-", 4, []bool{false, false, true}, 0),
		shape("wide", 5, pos(10), 0),
		shape("tie", 6, pos(2), 0),
		shape("tie2", 6, pos(2), 0), // same order as tie: only the key separates them
	}
}

// randomInst draws an instantiation of a random production with tags
// from a small range (negative and zero included), so that re-inserts,
// permuted tag lists and ordering ties all occur.
func randomInst(rng *rand.Rand, prods []*ops5.Production) *ops5.Instantiation {
	p := prods[rng.Intn(len(prods))]
	in := &ops5.Instantiation{Production: p, WMEs: make([]*ops5.WME, len(p.LHS))}
	for i, ce := range p.LHS {
		if !ce.Negated {
			in.WMEs[i] = ops5.NewWME("c")
			in.WMEs[i].TimeTag = rng.Intn(8) - 1
		}
	}
	return in
}

func TestSetAgainstStringKeyedReference(t *testing.T) {
	prods := testProductions()
	for _, strategy := range []Strategy{LEX, MEA} {
		// All ones is the shipped set; 3 packs everything onto four
		// chains; 0 onto one.
		for _, mask := range []uint64{^uint64(0), 3, 0} {
			t.Run(fmt.Sprintf("%v/mask=%#x", strategy, mask), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(mask) + int64(strategy)))
				s := NewSet(strategy)
				ref := &refSet{strategy: strategy, items: make(map[string]*refEntry)}
				for step := 0; step < 4000; step++ {
					in := randomInst(rng, prods)
					switch op := rng.Intn(10); {
					case op < 4:
						s.insert(instIdentity(in)&mask, in.Production, in.WMEs)
						ref.insert(in)
					case op < 7:
						s.remove(instIdentity(in)&mask, in.Production, in.WMEs)
						ref.remove(in)
					case op < 8:
						s.markFired(keyIdentity(in.Key())&mask, in.Key())
						ref.markFired(in.Key())
					default:
						got, want := s.Select(), ref.selectNext()
						if (got == nil) != (want == nil) || got != nil && got.Key() != want.Key() {
							t.Fatalf("step %d: Select() = %v, reference %v", step, got, want)
						}
					}
					_, present := ref.items[in.Key()]
					_, at := s.find(instIdentity(in)&mask, in.Production, in.WMEs)
					if (at >= 0) != present || s.Len() != len(ref.items) {
						t.Fatalf("step %d: %s present = %v, Len() = %d; reference %v, %d",
							step, in.Key(), at >= 0, s.Len(), present, len(ref.items))
					}
					if step%50 != 0 {
						continue
					}
					if got, want := s.FiredKeys(), ref.firedKeys(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: FiredKeys() = %v, reference %v", step, got, want)
					}
					got, want := s.Instantiations(), ref.ordered(false)
					if len(got) != len(want) {
						t.Fatalf("step %d: %d instantiations, reference %d", step, len(got), len(want))
					}
					for i := range got {
						if got[i].Key() != want[i].Key() {
							t.Fatalf("step %d: Instantiations()[%d] = %s, reference %s",
								step, i, got[i].Key(), want[i].Key())
						}
					}
				}
			})
		}
	}
}

// TestCollidingIdentities puts two live instantiations on one chain and
// checks each operation finds the one it names.
func TestCollidingIdentities(t *testing.T) {
	prods := testProductions()
	mk := func(p *ops5.Production, tags ...int) *ops5.Instantiation {
		in := &ops5.Instantiation{Production: p, WMEs: make([]*ops5.WME, len(tags))}
		for i, tag := range tags {
			in.WMEs[i] = ops5.NewWME("c")
			in.WMEs[i].TimeTag = tag
		}
		return in
	}
	older, newer := mk(prods[1], 3, 4), mk(prods[2], 5, 6)
	for _, strategy := range []Strategy{LEX, MEA} {
		const id = 42 // both on this chain
		s := NewSet(strategy)
		s.insert(id, older.Production, older.WMEs)
		s.insert(id, newer.Production, newer.WMEs)

		// Marking by string key marks the entry it names, whichever end
		// of the chain that is.
		s.markFired(id, older.Key())
		if got := s.FiredKeys(); len(got) != 1 || got[0] != older.Key() {
			t.Fatalf("%v: FiredKeys() = %v after MarkFired(%s)", strategy, got, older.Key())
		}
		if got := s.Select(); got == nil || got.Key() != newer.Key() {
			t.Fatalf("%v: Select() = %v, want the unfired %s", strategy, got, newer.Key())
		}
		if got := s.Select(); got != nil {
			t.Fatalf("%v: Select() = %s with everything fired", strategy, got.Key())
		}

		// Removing takes one and keeps the other, fired flag included.
		s.remove(id, newer.Production, newer.WMEs)
		_, gone := s.find(id, newer.Production, newer.WMEs)
		_, kept := s.find(id, older.Production, older.WMEs)
		if gone >= 0 || kept < 0 || s.Len() != 1 {
			t.Fatalf("%v: after removing %s: found at %d, the other at %d, Len = %d",
				strategy, newer.Key(), gone, kept, s.Len())
		}
		if got := s.FiredKeys(); len(got) != 1 || got[0] != older.Key() {
			t.Fatalf("%v: FiredKeys() = %v after removing the other entry", strategy, got)
		}
		s.remove(id, older.Production, older.WMEs)
		if s.Len() != 0 || s.Select() != nil {
			t.Fatalf("%v: set not empty after removing both", strategy)
		}
	}
}

// TestKeyIdentityMatchesIdentity pins the one property MarkFired rests
// on: the hash recovered from a key string is the hash the instantiation
// was filed under.
func TestKeyIdentityMatchesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prods := testProductions()
	for i := 0; i < 500; i++ {
		in := randomInst(rng, prods)
		for _, w := range in.WMEs {
			if w != nil && rng.Intn(4) == 0 {
				w.TimeTag = int(rng.Int63n(1 << 40)) // rng.Intn's draw, and compiles where int is 32 bits
			}
		}
		if got, want := keyIdentity(in.Key()), instIdentity(in); got != want {
			t.Fatalf("keyIdentity(%q) = %#x, identity = %#x", in.Key(), got, want)
		}
	}
}

// TestInsertRemoveAllocs: a conflict-set delta through the sink costs
// nothing — no instantiation, no key string, no entry object — and
// neither does a Select, which refills the set's scratch instantiation.
func TestInsertRemoveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prods := testProductions()[:5] // LHS within the inline arrays
	s := NewSet(LEX)
	insts := make([]*ops5.Instantiation, 64)
	for i := range insts {
		insts[i] = randomInst(rng, prods)
		s.InsertMatch(insts[i].Production, insts[i].WMEs)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, in := range insts {
			s.RemoveMatch(in.Production, in.WMEs)
		}
		for _, in := range insts {
			s.InsertMatch(in.Production, in.WMEs)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per %d RemoveMatch+InsertMatch pairs, want 0", allocs, len(insts))
	}
	allocs = testing.AllocsPerRun(100, func() {
		in := s.Select()
		if in == nil {
			panic("Select() = nil on a set refilled each run")
		}
		// Re-filing the match clears its fired flag, so the next run
		// selects it again.
		s.RemoveMatch(in.Production, in.WMEs)
		s.InsertMatch(in.Production, in.WMEs)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per Select, want 0", allocs)
	}
}

// FuzzConflictSet drives the set through the sink with byte-coded
// operations — InsertMatch, RemoveMatch, Select, MarkFired of a real or
// an arbitrary key, FiredKeys — and holds it to refSet after each: the
// same selection, size and refraction marks, and at the end the same
// strategy order. The first byte picks the strategy; each operation is
// an opcode byte, a production byte and one tag byte per positive
// condition element (tags -1..8, so re-inserts and ties are common).
func FuzzConflictSet(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 0, 2, 4, 5, 2, 0, 4, 0})
	f.Add([]byte{1, 0, 3, 1, 2, 0, 3, 2, 2, 2, 0, 4, 1, 3, 1, 3, 2, 1, 2, 0})
	f.Add([]byte{0, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 3, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 2, 0, 4, 0})
	f.Add([]byte{1, 0, 6, 2, 2, 0, 7, 2, 2, 2, 0, 2, 0, 5, 0, 't', 'i', 'e', '|', '2', '|', '2', 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		prods := testProductions()
		strategy := Strategy(data[0] & 1)
		s := NewSet(strategy)
		ref := &refSet{strategy: strategy, items: make(map[string]*refEntry)}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for data = data[1:]; len(data) > 0; {
			op, p := next()%6, prods[int(next())%len(prods)]
			in := &ops5.Instantiation{Production: p, WMEs: make([]*ops5.WME, len(p.LHS))}
			for i, ce := range p.LHS {
				if !ce.Negated {
					in.WMEs[i] = &ops5.WME{TimeTag: int(next()%10) - 1}
				}
			}
			switch op {
			case 0:
				s.InsertMatch(in.Production, in.WMEs)
				ref.insert(in)
			case 1:
				s.RemoveMatch(in.Production, in.WMEs)
				ref.remove(in)
			case 2:
				got, want := s.Select(), ref.selectNext()
				if (got == nil) != (want == nil) || got != nil && got.Key() != want.Key() {
					t.Fatalf("Select() = %v, reference %v", got, want)
				}
			case 3:
				s.MarkFired(in.Key())
				ref.markFired(in.Key())
			case 4:
				if got, want := s.FiredKeys(), ref.firedKeys(); !reflect.DeepEqual(got, want) {
					t.Fatalf("FiredKeys() = %v, reference %v", got, want)
				}
			case 5:
				// A key no instantiation need spell: up to 8 raw bytes.
				key := make([]byte, 0, 8)
				for n := next() % 9; n > 0 && len(data) > 0; n-- {
					key = append(key, next())
				}
				s.MarkFired(string(key))
				ref.markFired(string(key))
			}
			if s.Len() != len(ref.items) {
				t.Fatalf("Len() = %d, reference %d", s.Len(), len(ref.items))
			}
		}
		got, want := s.Instantiations(), ref.ordered(false)
		if len(got) != len(want) {
			t.Fatalf("%d instantiations, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("Instantiations()[%d] = %s, reference %s", i, got[i].Key(), want[i].Key())
			}
		}
		if got, want := s.FiredKeys(), ref.firedKeys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("FiredKeys() = %v, reference %v", got, want)
		}
	})
}
