package rete_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/rete"
)

// run builds a network, applies the script, and compares the tracked
// conflict set against brute force after every batch.
func runScript(t *testing.T, prods []*ops5.Production, script *matchtest.Script) *rete.Network {
	t.Helper()
	n, err := rete.Compile(prods)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr := matchtest.NewTracker()
	n.Sink = tr

	live := map[int]*ops5.WME{}
	for bi, batch := range script.Batches {
		for _, ch := range batch {
			if ch.Kind == ops5.Insert {
				live[ch.WME.TimeTag] = ch.WME
			} else {
				delete(live, ch.WME.TimeTag)
			}
		}
		n.Apply(batch)
		wmes := make([]*ops5.WME, 0, len(live))
		for _, w := range live {
			wmes = append(wmes, w)
		}
		want := matchtest.BruteForceKeys(prods, wmes)
		got := tr.Keys()
		if d := matchtest.Diff(want, got); d != "" {
			t.Fatalf("batch %d: conflict set mismatch:\n%s", bi, d)
		}
	}
	if n.Stats.Anomalies != 0 {
		t.Errorf("anomalies = %d, want 0", n.Stats.Anomalies)
	}
	return n
}

func TestPaperProduction(t *testing.T) {
	src := `
(p find-colored-blk
    (goal ^type find-blk ^color <c>)
    (block ^id <i> ^color <c> ^selected no)
  -->
    (modify 2 ^selected yes))
`
	p, err := ops5.ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rete.Compile([]*ops5.Production{p})
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	n.Sink = tr

	goal := ops5.NewWME("goal", "type", "find-blk", "color", "red")
	goal.TimeTag = 1
	b1 := ops5.NewWME("block", "id", 1, "color", "red", "selected", "no")
	b1.TimeTag = 2
	b2 := ops5.NewWME("block", "id", 2, "color", "blue", "selected", "no")
	b2.TimeTag = 3

	n.Apply([]ops5.Change{
		{Kind: ops5.Insert, WME: goal},
		{Kind: ops5.Insert, WME: b1},
		{Kind: ops5.Insert, WME: b2},
	})
	if got := len(tr.Keys()); got != 1 {
		t.Fatalf("conflict set size = %d, want 1 (only the red block matches)", got)
	}
	// Deleting the goal empties the conflict set.
	n.Apply([]ops5.Change{{Kind: ops5.Delete, WME: goal}})
	if got := len(tr.Keys()); got != 0 {
		t.Fatalf("after goal delete, conflict set size = %d, want 0", got)
	}
}

func TestNegatedCE(t *testing.T) {
	src := `
(p alone
    (task ^id <i>)
   -(lock ^task <i>)
  -->
    (remove 1))
`
	p, err := ops5.ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rete.Compile([]*ops5.Production{p})
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	n.Sink = tr

	task := ops5.NewWME("task", "id", 7)
	task.TimeTag = 1
	lock := ops5.NewWME("lock", "task", 7)
	lock.TimeTag = 2

	n.Apply([]ops5.Change{{Kind: ops5.Insert, WME: task}})
	if len(tr.Keys()) != 1 {
		t.Fatal("task without lock should satisfy the production")
	}
	n.Apply([]ops5.Change{{Kind: ops5.Insert, WME: lock}})
	if len(tr.Keys()) != 0 {
		t.Fatal("lock insertion should retract the instantiation")
	}
	n.Apply([]ops5.Change{{Kind: ops5.Delete, WME: lock}})
	if len(tr.Keys()) != 1 {
		t.Fatal("lock deletion should re-derive the instantiation")
	}
	n.Apply([]ops5.Change{{Kind: ops5.Delete, WME: task}})
	if len(tr.Keys()) != 0 {
		t.Fatal("task deletion should empty the conflict set")
	}
	if n.Stats.Anomalies != 0 {
		t.Errorf("anomalies = %d", n.Stats.Anomalies)
	}
}

func TestSameWMETwoCEs(t *testing.T) {
	// One WME can match two condition elements of the same production;
	// the pair must be emitted exactly once (descendant-first alpha
	// successor ordering).
	src := `
(p pair
    (c ^a <x>)
    (c ^a <x>)
  -->
    (remove 1))
`
	p, err := ops5.ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rete.Compile([]*ops5.Production{p})
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	n.Sink = tr

	w := ops5.NewWME("c", "a", 1)
	w.TimeTag = 1
	n.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
	want := matchtest.BruteForceKeys([]*ops5.Production{p}, []*ops5.WME{w})
	if d := matchtest.Diff(want, tr.Keys()); d != "" {
		t.Fatalf("mismatch (duplicate or missing [w w] token):\n%s", d)
	}
	n.Apply([]ops5.Change{{Kind: ops5.Delete, WME: w}})
	if len(tr.Keys()) != 0 {
		t.Fatal("delete should empty the conflict set")
	}
	if n.Stats.Anomalies != 0 {
		t.Errorf("anomalies = %d", n.Stats.Anomalies)
	}
}

func TestNodeSharing(t *testing.T) {
	srcs := `
(p one (goal ^type find ^color red) (block ^color red) --> (remove 1))
(p two (goal ^type find ^color red) (block ^color blue) --> (remove 1))
`
	prog, err := ops5.Parse(srcs)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	c := n.Counts()
	// The goal CE is identical in both productions: its constant tests
	// and alpha memory must be shared, as must the first join.
	if c.SharedConstSavings == 0 {
		t.Errorf("expected shared constant-test nodes, counts = %+v", c)
	}
	if c.SharedJoinSavings == 0 {
		t.Errorf("expected the first join to be shared, counts = %+v", c)
	}
	if len(n.Alphas) != 3 {
		t.Errorf("alpha memories = %d, want 3 (goal, block-red, block-blue)", len(n.Alphas))
	}
}

func TestRandomizedCrossCheck(t *testing.T) {
	params := matchtest.DefaultGenParams()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 30, 4)
		runScript(t, prods, script)
	}
}

func TestRandomizedCrossCheckHeavyNegation(t *testing.T) {
	params := matchtest.DefaultGenParams()
	params.NegProb = 0.5
	params.MaxCEs = 4
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 25, 3)
		runScript(t, prods, script)
	}
}

// TestRandomizedCrossCheckIndexStress drives the hash-indexed join
// path hard: many equality variable joins (indexed probes), predicate
// tests on bound variables (full-test re-verification of bucket
// candidates), and negated CEs (indexed not-nodes), cross-checked
// against brute force after every batch. Programs with few equality
// tests also exercise the linear-scan fallback.
func TestRandomizedCrossCheckIndexStress(t *testing.T) {
	params := matchtest.IndexStressGenParams()
	indexed := 0
	for seed := int64(300); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 30, 4)
		for _, j := range runScript(t, prods, script).Joins {
			if j.LeftHash != nil {
				indexed++
			}
		}
	}
	if indexed == 0 {
		t.Error("index-stress programs produced no indexed joins; generator drifted")
	}
}

func TestInsertDeleteRestoresMemories(t *testing.T) {
	// Inserting a batch and deleting it again must restore the stored
	// state and the conflict set (TestInsertDeleteRestoresBuckets checks
	// memory by memory).
	params := matchtest.DefaultGenParams()
	rng := rand.New(rand.NewSource(42))
	prods := matchtest.RandomProgram(rng, params)
	n, err := rete.Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	n.Sink = tr

	var wmes []*ops5.WME
	for i := 0; i < 30; i++ {
		w := matchtest.RandomWME(rng, params)
		w.TimeTag = i + 1
		wmes = append(wmes, w)
	}
	half := wmes[:15]
	for _, w := range half {
		n.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
	}
	stateBefore := n.StateSize()
	csBefore := tr.Keys()

	for _, w := range wmes[15:] {
		n.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
	}
	for _, w := range wmes[15:] {
		n.Apply([]ops5.Change{{Kind: ops5.Delete, WME: w}})
	}

	if got := n.StateSize(); got != stateBefore {
		t.Errorf("stored state = %d entries, want %d", got, stateBefore)
	}
	if d := matchtest.Diff(csBefore, tr.Keys()); d != "" {
		t.Errorf("conflict set not restored:\n%s", d)
	}
	if n.Stats.Anomalies != 0 {
		t.Errorf("anomalies = %d", n.Stats.Anomalies)
	}
}

func TestPredicateBeforeBindingFails(t *testing.T) {
	p, err := ops5.ParseProduction(`(p x (a ^v > <z>) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rete.Compile([]*ops5.Production{p}); err == nil {
		t.Fatal("expected compile error for predicate on unbound variable")
	}
}

func TestCompiledDispatchEquivalent(t *testing.T) {
	// The one test dispatch form, JoinNode.Eval, must produce exactly the
	// brute-force conflict sets on randomized programs.
	params := matchtest.DefaultGenParams()
	for seed := int64(500); seed < 510; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 20, 4)

		n, err := rete.Compile(prods)
		if err != nil {
			t.Fatal(err)
		}
		tr := matchtest.NewTracker()
		n.Sink = tr
		live := map[int]*ops5.WME{}
		for bi, batch := range script.Batches {
			for _, ch := range batch {
				if ch.Kind == ops5.Insert {
					live[ch.WME.TimeTag] = ch.WME
				} else {
					delete(live, ch.WME.TimeTag)
				}
			}
			n.Apply(batch)
			wmes := make([]*ops5.WME, 0, len(live))
			for _, w := range live {
				wmes = append(wmes, w)
			}
			want := matchtest.BruteForceKeys(prods, wmes)
			if d := matchtest.Diff(want, tr.Keys()); d != "" {
				t.Fatalf("seed %d batch %d:\n%s", seed, bi, d)
			}
		}
	}
}

func TestDump(t *testing.T) {
	prog, err := ops5.Parse(`
(p one (goal ^type find ^color <c>) (block ^color <c>) --> (remove 2))
(p two (goal ^type find ^color <c>) -(block ^color <c>) --> (remove 1))
`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	n.Dump(&b)
	out := b.String()
	for _, want := range []string{"class goal", "class block", "two-input nodes:", "not#", "and#", "terminals:", "one", "two", "dummy-top"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestJoinKeyCanonicalOrder pins the canonical key order: whatever order
// a production writes its equality tests in, the key comes out sorted.
func TestJoinKeyCanonicalOrder(t *testing.T) {
	for _, perm := range []string{"abc", "acb", "bac", "bca", "cab", "cba"} {
		var tests []rete.JoinTest
		for _, c := range perm {
			tests = append(tests, rete.JoinTest{Pred: ops5.PredEq, RightAttr: string(c), LeftAttr: "x"})
		}
		// A residual predicate test must stay out of the key.
		tests = append(tests, rete.JoinTest{Pred: ops5.PredGt, RightAttr: "0", LeftAttr: "x"})
		var got string
		for _, jt := range rete.SplitJoinTests(tests) {
			got += jt.RightAttr
		}
		if got != "abc" {
			t.Errorf("key of tests written %s = %s, want abc", perm, got)
		}
	}
}

// TestSameKeyColumnsShareAKey checks that two joins keying one beta
// memory by the same three columns share one of its keys (one index in
// the serial network, one shared left memory in the parallel one)
// although their productions write the attributes in different orders.
func TestSameKeyColumnsShareAKey(t *testing.T) {
	prog, err := ops5.Parse(`
(p one (a ^x <x> ^y <y> ^z <z>) (b ^p <x> ^q <y> ^r <z>) --> (halt))
(p two (a ^x <x> ^y <y> ^z <z>) (c ^r <z> ^p <x> ^q <y>) --> (halt))
`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := rete.CompilePlan(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range plan.Betas {
		if len(b.Joins) == 2 {
			if len(b.Keys) != 1 || b.Joins[0].LeftKey != 0 || b.Joins[1].LeftKey != 0 {
				t.Errorf("beta#%d: its 2 joins use keys %d and %d of %d, want both on the one key",
					b.ID, b.Joins[0].LeftKey, b.Joins[1].LeftKey, len(b.Keys))
			}
			return
		}
	}
	t.Fatal("no beta memory with two readers; the productions no longer share their first CE")
}

// TestUnkeyedNotNodeDeleteTestsOneRecord churns one left token through
// an unkeyed not-node that holds 64 others. Its records are bucketed by
// token identity, so an insert+delete round allocates nothing and the
// delete tests only the record it removes, however many are live.
func TestUnkeyedNotNodeDeleteTestsOneRecord(t *testing.T) {
	p, err := ops5.ParseProduction(`(p x (a ^v <v>) - (b) (c ^v <v>) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rete.Compile([]*ops5.Production{p})
	if err != nil {
		t.Fatal(err)
	}
	const live = 64
	for i := 0; i < live; i++ {
		w := ops5.NewWME("a", "v", i)
		w.TimeTag = i + 1
		n.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
	}
	w := ops5.NewWME("a", "v", live)
	w.TimeTag = live + 1
	insert := []ops5.Change{{Kind: ops5.Insert, WME: w}}
	remove := []ops5.Change{{Kind: ops5.Delete, WME: w}}
	round := func() { n.Apply(insert); n.Apply(remove) }
	round() // warm the free lists

	before := n.Stats.TokenComparisons
	const rounds = 100
	allocs := testing.AllocsPerRun(rounds, round)
	perRound := float64(n.Stats.TokenComparisons-before) / (rounds + 1)
	t.Logf("%.0f allocations, %.1f token comparisons per round with %d live records", allocs, perRound, live)
	if allocs != 0 {
		t.Errorf("%.0f allocations per insert+delete round, want 0", allocs)
	}
	if perRound > 3 {
		t.Errorf("%.1f token comparisons per round, want at most 3: a delete must not scan the %d live records", perRound, live)
	}
	if n.Stats.Anomalies != 0 {
		t.Errorf("anomalies = %d", n.Stats.Anomalies)
	}
}
