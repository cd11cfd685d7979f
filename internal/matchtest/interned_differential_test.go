package matchtest_test

// Differential tests for the interned fact representation: the Rete
// matcher compares interned symbol IDs (integer compares), while
// ops5.SatisfyBruteForce evaluates the same patterns by value — the
// string-keyed semantics that predate interning. Any program over any
// symbol vocabulary must produce identical conflict sets through both,
// especially for symbols chosen to shake out interning bugs: the empty
// string, whitespace, names that look numeric ("1" the symbol versus 1
// the number), case variants, unicode, and near-identical long names.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/rete"
)

// trickySymbols is the adversarial vocabulary. It deliberately reuses
// the generator's class/attribute names as values (a0, c0) so class,
// attribute and value namespaces share interned IDs.
var trickySymbols = []string{
	"",
	" ",
	"1",
	"1.0",
	"01",
	"-3",
	"nil",
	"goal",
	"GOAL",
	"λ→μ",
	"a b",
	"a0",
	"c0",
	"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxA",
	"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxB",
}

// tClass/tAttr mirror the generator's c%d/a%d vocabulary.
func tClass(i int) string { return fmt.Sprintf("c%d", i) }
func tAttr(i int) string  { return fmt.Sprintf("a%d", i) }

// trickyValue picks a value: usually a tricky symbol, sometimes a
// number whose rendering collides with a symbol name ("1", "1.0", "-3")
// so symbol-versus-number confusion would show up as a diff.
func trickyValue(rng *rand.Rand, pool []string) ops5.Value {
	if rng.Intn(4) == 0 {
		nums := []float64{1, 1.0, -3, 0}
		return ops5.Num(nums[rng.Intn(len(nums))])
	}
	return ops5.Sym(pool[rng.Intn(len(pool))])
}

// trickyProgram builds productions whose constant tests, disjunctions
// and variable joins range over the tricky vocabulary. Classes and
// attributes come from the generator's usual c%d/a%d names so programs
// stay small and joins actually happen; the values are the point.
func trickyProgram(rng *rand.Rand, pool []string, nProds int) []*ops5.Production {
	classes, attrs := 3, 3
	prods := make([]*ops5.Production, 0, nProds)
	for i := 0; i < nProds; i++ {
		prod := &ops5.Production{Name: "p" + string(rune('0'+i))}
		nCE := 1 + rng.Intn(3)
		bound := false
		for ce := 0; ce < nCE; ce++ {
			el := &ops5.CondElement{
				Negated: ce > 0 && rng.Intn(4) == 0,
				Class:   tClass(rng.Intn(classes)),
			}
			nTests := 1 + rng.Intn(attrs)
			for t := 0; t < nTests; t++ {
				at := ops5.AttrTest{Attr: tAttr(rng.Intn(attrs))}
				switch {
				case rng.Intn(3) == 0: // variable: binds first, joins after
					at.Terms = []ops5.Term{{Kind: ops5.TermVar, Pred: ops5.PredEq, Var: "x"}}
					if !el.Negated {
						bound = true
					}
				case rng.Intn(3) == 0: // disjunction over tricky values
					at.Terms = []ops5.Term{{Kind: ops5.TermDisj, Disj: []ops5.Value{
						trickyValue(rng, pool), trickyValue(rng, pool),
					}}}
				default: // constant eq/ne on a tricky value
					pred := ops5.PredEq
					if rng.Intn(3) == 0 {
						pred = ops5.PredNe
					}
					at.Terms = []ops5.Term{{Kind: ops5.TermConst, Pred: pred, Val: trickyValue(rng, pool)}}
				}
				el.Tests = append(el.Tests, at)
			}
			prod.LHS = append(prod.LHS, el)
		}
		_ = bound
		prod.RHS = []*ops5.Action{{
			Kind: ops5.ActMake, Class: "out",
			Pairs: []ops5.RHSPair{{Attr: "r", Term: ops5.RHSTerm{Val: ops5.Num(1)}}},
		}}
		if err := prod.Validate(); err != nil {
			continue // a shape the AST rejects (e.g. negated-only vars); skip
		}
		prod.Order = len(prods)
		prods = append(prods, prod)
	}
	return prods
}

// trickyWME builds an element over the same vocabulary.
func trickyWME(rng *rand.Rand, pool []string) *ops5.WME {
	n := 1 + rng.Intn(3)
	pairs := make([]any, 0, 2*n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, tAttr(rng.Intn(3)), trickyValue(rng, pool))
	}
	return ops5.NewWME(tClass(rng.Intn(3)), pairs...)
}

// runInternedDifferential replays an insert/delete script through the
// interned Rete and cross-checks the conflict set against the
// brute-force oracle after every batch.
func runInternedDifferential(t *testing.T, rng *rand.Rand, pool []string, batches int) {
	t.Helper()
	prods := trickyProgram(rng, pool, 4)
	if len(prods) == 0 {
		return
	}
	net, err := rete.Compile(prods)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr := matchtest.NewTracker()
	net.Sink = tr

	var live []*ops5.WME
	nextTag := 1
	for b := 0; b < batches; b++ {
		var batch []ops5.Change
		for i := 0; i < 1+rng.Intn(6); i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: live[k]})
				live = append(live[:k], live[k+1:]...)
			} else {
				w := trickyWME(rng, pool)
				w.TimeTag = nextTag
				nextTag++
				live = append(live, w)
				batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: w})
			}
		}
		net.Apply(batch)
		want := matchtest.BruteForceKeys(prods, live)
		if d := matchtest.Diff(want, tr.Keys()); d != "" {
			t.Fatalf("batch %d: interned rete diverges from brute force:\n%s", b, d)
		}
	}
}

// TestDifferentialInternedVsBruteForce seeds the property directly so
// it runs on every `go test`, fuzzing or not.
func TestDifferentialInternedVsBruteForce(t *testing.T) {
	for seed := int64(900); seed < 916; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runInternedDifferential(t, rng, trickySymbols, 12)
	}
}

// FuzzDifferentialInternedVsBruteForce extends the vocabulary with
// fuzzer-invented symbols: whatever strings the fuzzer interleaves must
// still match identically under integer-compare and value-compare
// semantics.
func FuzzDifferentialInternedVsBruteForce(f *testing.F) {
	f.Add(int64(1), "alpha\x00beta")
	f.Add(int64(2), "0x10|１|︎")
	f.Add(int64(3), "")
	f.Fuzz(func(t *testing.T, seed int64, extra string) {
		pool := append([]string{}, trickySymbols...)
		for len(extra) > 0 { // split the fuzz string into a few symbols
			n := 1 + len(extra)/3
			if n > len(extra) {
				n = len(extra)
			}
			pool = append(pool, extra[:n])
			extra = extra[n:]
		}
		rng := rand.New(rand.NewSource(seed))
		runInternedDifferential(t, rng, pool, 8)
	})
}
