package ops5

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sym"
)

// randomValue draws a Value for property tests.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(3) {
	case 0:
		return Num(float64(rng.Intn(7)))
	case 1:
		syms := []string{"a", "b", "red", "goal"}
		return Sym(syms[rng.Intn(len(syms))])
	default:
		return Value{}
	}
}

// Generate makes Value implement quick.Generator.
func (Value) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomValue(rng))
}

func TestQuickValueEqualReflexiveSymmetric(t *testing.T) {
	f := func(a, b Value) bool {
		if !a.Equal(a) || !b.Equal(b) {
			return false
		}
		return a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickLessIsStrictWeakOrder(t *testing.T) {
	f := func(a, b Value) bool {
		if a.Less(a) {
			return false // irreflexive
		}
		if a.Less(b) && b.Less(a) {
			return false // asymmetric
		}
		// Totality over distinct values.
		if !a.Equal(b) && !a.Less(b) && !b.Less(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickPredicateConsistency(t *testing.T) {
	f := func(a, b Value) bool {
		eq := PredEq.Compare(a, b)
		ne := PredNe.Compare(a, b)
		if eq == ne {
			return false // eq and ne are complements
		}
		if a.Kind == NumValue && b.Kind == NumValue {
			lt := PredLt.Compare(a, b)
			gt := PredGt.Compare(a, b)
			le := PredLe.Compare(a, b)
			ge := PredGe.Compare(a, b)
			if lt && gt {
				return false
			}
			if le != (lt || eq) || ge != (gt || eq) {
				return false
			}
		} else {
			// Ordering predicates are false on non-numeric pairs.
			for _, p := range []Predicate{PredLt, PredGt, PredLe, PredGe} {
				if p.Compare(a, b) {
					return false
				}
			}
		}
		return PredSameType.Compare(a, b) == (a.Kind == b.Kind)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickWMECloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pairs := make([]any, 0, 10)
		for i := 0; i < rng.Intn(5); i++ {
			pairs = append(pairs, string(rune('a'+i)), randomValue(rng))
		}
		w := NewWME("c", pairs...)
		w.TimeTag = rng.Intn(100)
		c := w.Clone()
		if !w.Equal(c) || !c.Equal(w) {
			return false
		}
		// Extending the clone must not affect the original.
		c2 := new(WME)
		c.AppendWithUpdates(c2, nil, []Field{{Attr: sym.Intern("zz"), Val: Num(1)}})
		return !c2.Get("zz").Nil() && w.Get("zz").Nil()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchCEConsistentWithBruteForce(t *testing.T) {
	// For single-CE productions, SatisfyBruteForce must agree with
	// direct MatchCE over the working memory.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ce := &CondElement{Class: "c"}
		ce.Tests = append(ce.Tests, AttrTest{
			Attr:  "a",
			Terms: []Term{{Kind: TermConst, Pred: PredEq, Val: Num(float64(rng.Intn(3)))}},
		})
		p := &Production{
			Name: "q",
			LHS:  []*CondElement{ce},
			RHS:  []*Action{{Kind: ActHalt}},
		}
		var wm []*WME
		for i := 0; i < 8; i++ {
			w := NewWME("c", "a", Num(float64(rng.Intn(3))))
			w.TimeTag = i + 1
			wm = append(wm, w)
		}
		insts := SatisfyBruteForce(p, wm)
		count := 0
		for _, w := range wm {
			if _, ok := MatchCE(ce, w, nil); ok {
				count++
			}
		}
		return len(insts) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAlphaPassIsSupersetOfMatch(t *testing.T) {
	// Any WME matching a CE under some bindings must pass AlphaPass.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ce := &CondElement{Class: "c", Tests: []AttrTest{
			{Attr: "a", Terms: []Term{{Kind: TermVar, Pred: PredEq, Var: "x"}}},
			{Attr: "b", Terms: []Term{{Kind: TermVar, Pred: PredGt, Var: "x"}}},
		}}
		w := NewWME("c",
			"a", Num(float64(rng.Intn(4))),
			"b", Num(float64(rng.Intn(4))))
		if _, ok := MatchCE(ce, w, Bindings{}); ok && !AlphaPass(ce, w) {
			return false
		}
		// And with external bindings.
		b := Bindings{"x": Num(float64(rng.Intn(4)))}
		if _, ok := MatchCE(ce, w, b); ok && !AlphaPass(ce, w) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInstantiationKeyIdentity(t *testing.T) {
	p := &Production{Name: "p", LHS: []*CondElement{{Class: "c"}}}
	w1, w2 := NewWME("c"), NewWME("c")
	w1.TimeTag, w2.TimeTag = 4, 4
	a := &Instantiation{Production: p, WMEs: []*WME{w1}}
	b := &Instantiation{Production: p, WMEs: []*WME{w2}}
	if a.Key() != b.Key() {
		t.Errorf("keys differ for identical time tags: %q vs %q", a.Key(), b.Key())
	}
	w3 := NewWME("c")
	w3.TimeTag = 5
	c := &Instantiation{Production: p, WMEs: []*WME{w3}}
	if a.Key() == c.Key() {
		t.Error("keys collide for different time tags")
	}
}
