package matchtest_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/conflict"
	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/sym"
)

// slotRHS replaces p's right-hand side with one that reads every
// variable p's positive condition elements bind:
//
//	(make out ^p p ^v0 <v0> ... ^c (compute <k> + 1))
//	(bind <r> (compute <r> + 10))
//	(make out ^p p ^r <r> ^k <k>)
//
// where k is the last variable and r the first, so the bind rebinds an
// LHS variable after one use and before another (and <k> reads the
// slot when k is r). A production that binds nothing makes (out ^p p).
// It returns the variables in make order.
func slotRHS(t testing.TB, p *ops5.Production) []string {
	t.Helper()
	seen := map[string]bool{}
	for _, ce := range p.LHS {
		if ce.Negated {
			continue
		}
		for _, at := range ce.Tests {
			for _, term := range at.Terms {
				if term.Kind == ops5.TermVar && term.Pred == ops5.PredEq {
					seen[term.Var] = true
				}
			}
		}
	}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	v := func(name string) ops5.RHSTerm { return ops5.RHSTerm{IsVar: true, Var: name} }
	plus := func(name string, n float64) ops5.RHSTerm {
		return ops5.RHSTerm{Compute: &ops5.ComputeExpr{
			Operands: []ops5.RHSTerm{v(name), {Val: ops5.Num(n)}}, Ops: []ops5.ComputeOp{ops5.OpAdd}}}
	}
	first := &ops5.Action{Kind: ops5.ActMake, Class: "out",
		Pairs: []ops5.RHSPair{{Attr: "p", Term: ops5.RHSTerm{Val: ops5.Sym(p.Name)}}}}
	p.RHS = []*ops5.Action{first}
	if len(vars) > 0 {
		for _, name := range vars {
			first.Pairs = append(first.Pairs, ops5.RHSPair{Attr: name, Term: v(name)})
		}
		r, k := vars[0], vars[len(vars)-1]
		first.Pairs = append(first.Pairs, ops5.RHSPair{Attr: "c", Term: plus(k, 1)})
		p.RHS = append(p.RHS,
			&ops5.Action{Kind: ops5.ActBind, Var: r, Term: plus(r, 10)},
			&ops5.Action{Kind: ops5.ActMake, Class: "out", Pairs: []ops5.RHSPair{
				{Attr: "p", Term: ops5.RHSTerm{Val: ops5.Sym(p.Name)}}, {Attr: "r", Term: v(r)}, {Attr: "k", Term: v(k)}}})
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return vars
}

// slotReference is what firing inst must make, rebuilt without the
// compiled slots: bindings from ops5.MatchCE over the instantiation's
// WMEs, then the RHS of slotRHS evaluated on them by hand. failed
// reports that a compute operand is not a number, so the firing fails.
func slotReference(t testing.TB, inst *ops5.Instantiation, vars []string) (made []*ops5.WME, failed bool) {
	t.Helper()
	b := ops5.Bindings{}
	for i, ce := range inst.Production.LHS {
		if ce.Negated {
			continue
		}
		nb, ok := ops5.MatchCE(ce, inst.WMEs[i], b)
		if !ok {
			t.Fatalf("%s: CE %d does not match %s under %v", inst.Key(), i+1, inst.WMEs[i], b)
		}
		b = nb
	}
	field := func(attr string, val ops5.Value) ops5.Field { return ops5.Field{Attr: sym.Intern(attr), Val: val} }
	name := ops5.Sym(inst.Production.Name)
	fields := []ops5.Field{field("p", name)}
	if len(vars) == 0 {
		return []*ops5.WME{ops5.NewFact(sym.Intern("out"), fields)}, false
	}
	for _, v := range vars {
		fields = append(fields, field(v, b[v]))
	}
	r, k := vars[0], vars[len(vars)-1]
	if b[k].Kind != ops5.NumValue {
		return nil, true
	}
	fields = append(fields, field("c", ops5.Num(b[k].Num+1)))
	if b[r].Kind != ops5.NumValue {
		return nil, true
	}
	b[r] = ops5.Num(b[r].Num + 10)
	return []*ops5.WME{
		ops5.NewFact(sym.Intern("out"), fields),
		ops5.NewFact(sym.Intern("out"), []ops5.Field{field("p", name), field("r", b[r]), field("k", b[k])}),
	}, false
}

// slotWME is matchtest.RandomWME with, three times in four, every
// attribute set, so that most firings compute on numbers and some fail
// on a variable bound to an absent attribute.
func slotWME(rng *rand.Rand, params matchtest.GenParams) *ops5.WME {
	if rng.Intn(4) == 0 {
		return matchtest.RandomWME(rng, params)
	}
	pairs := make([]any, 0, 2*params.Attrs)
	for a := 0; a < params.Attrs; a++ {
		pairs = append(pairs, fmt.Sprintf("a%d", a), rng.Intn(params.Values))
	}
	return ops5.NewWME(fmt.Sprintf("c%d", rng.Intn(params.Classes)), pairs...)
}

// checkRHSSlots fires the productions of one RandomProgram, each given
// slotRHS's right-hand side, through the engine on the named matcher,
// two firings per cycle, over random batches of asserts and retracts.
// Every element a cycle commits must equal slotReference's, in order;
// a cycle whose firing fails must commit nothing.
func checkRHSSlots(t *testing.T, seed int64, kind string, params matchtest.GenParams) {
	rng := rand.New(rand.NewSource(seed))
	prods := matchtest.RandomProgram(rng, params)
	vars := map[*ops5.Production][]string{}
	for _, p := range prods {
		vars[p] = slotRHS(t, p)
	}
	e := sinkEngine(t, kind, prods, conflict.LEX, false)
	var fired []*ops5.Instantiation
	// OnFire lends the conflict set's scratch instantiation for the call.
	e.OnFire = func(in *ops5.Instantiation) {
		fired = append(fired, ops5.NewInstantiation(in.Production, in.WMEs))
	}
	var committed []*ops5.WME
	e.Sink = func(changes []ops5.Change, _ []string) {
		for _, ch := range changes {
			if ch.Kind == ops5.Insert && ch.WME.Class() == "out" {
				committed = append(committed, ch.WME)
			}
		}
	}
	out, failures := 0, 0
	for b := 0; b < 10; b++ {
		var batch []ops5.Change
		for i := 1 + rng.Intn(3); i > 0; i-- {
			batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: slotWME(rng, params)})
		}
		var live []*ops5.WME
		for _, w := range e.WM.Elements() {
			if w.Class() == "out" {
				// Checked already; retracted to keep the memory small.
				batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: w})
			} else {
				live = append(live, w)
			}
		}
		for i := rng.Intn(3); i > 0 && len(live) > 0; i-- {
			k := rng.Intn(len(live))
			batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: live[k]})
			live = slices.Delete(live, k, k+1)
		}
		e.ApplyChanges(batch)
		// Up to 100 cycles a batch; what is left fires after the next.
		for cycle := 0; cycle < 100; cycle++ {
			fired, committed = fired[:0], committed[:0]
			ok, err := e.Step()
			var want []*ops5.WME
			for i, in := range fired {
				made, failed := slotReference(t, in, vars[in.Production])
				if failed != (err != nil && i == len(fired)-1) {
					t.Fatalf("seed %d %s: firing %s: reference fails %v, engine error %v", seed, kind, in.Key(), failed, err)
				}
				want = append(want, made...)
			}
			if err != nil {
				failures++
				want = nil // a failed cycle commits none of its changes
			}
			if len(committed) != len(want) {
				t.Fatalf("seed %d %s: cycle committed %d elements, want %d", seed, kind, len(committed), len(want))
			}
			for i := range want {
				if !committed[i].Equal(want[i]) {
					t.Fatalf("seed %d %s: made %s, want %s", seed, kind, committed[i], want[i])
				}
			}
			out += len(committed)
			if !ok && err == nil {
				break
			}
		}
	}
	t.Logf("seed %d %s: %d elements made, %d failed cycles, %d cycles", seed, kind, out, failures, e.Cycles)
}

// TestRHSSlots runs checkRHSSlots on the served matchers over a few
// seeds of both the default and the index-stress program shapes.
func TestRHSSlots(t *testing.T) {
	for _, kind := range []string{"rete", "prete-2", "naive"} {
		for seed := int64(1); seed <= 6; seed++ {
			params := matchtest.DefaultGenParams()
			if seed%2 == 0 {
				params = matchtest.IndexStressGenParams()
			}
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) { checkRHSSlots(t, seed, kind, params) })
		}
	}
}

// FuzzRHSSlots is TestRHSSlots over arbitrary seeds and shapes.
func FuzzRHSSlots(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(9), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, shape, matcher uint8) {
		params := []matchtest.GenParams{
			matchtest.DefaultGenParams(), matchtest.FanOutGenParams(4), matchtest.IndexStressGenParams(),
		}[int(shape)%3]
		kind := []string{"rete", "prete-1", "prete-2", "naive"}[int(matcher)%4]
		checkRHSSlots(t, seed, kind, params)
	})
}
