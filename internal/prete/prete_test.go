package prete_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/prete"
)

func runScript(t *testing.T, prods []*ops5.Production, script *matchtest.Script, workers int) *prete.Matcher {
	t.Helper()
	m, err := prete.New(prods, workers)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	tr := matchtest.NewTracker()
	m.OnInsert = tr.Insert
	m.OnRemove = tr.Remove

	live := map[int]*ops5.WME{}
	for bi, batch := range script.Batches {
		for _, ch := range batch {
			if ch.Kind == ops5.Insert {
				live[ch.WME.TimeTag] = ch.WME
			} else {
				delete(live, ch.WME.TimeTag)
			}
		}
		m.Apply(batch)
		wmes := make([]*ops5.WME, 0, len(live))
		for _, w := range live {
			wmes = append(wmes, w)
		}
		want := matchtest.BruteForceKeys(prods, wmes)
		got := tr.Keys()
		if d := matchtest.Diff(want, got); d != "" {
			t.Fatalf("batch %d (workers=%d): conflict set mismatch:\n%s", bi, workers, d)
		}
	}
	return m
}

func TestRandomizedCrossCheck(t *testing.T) {
	params := matchtest.DefaultGenParams()
	for _, workers := range []int{1, 4, 16} {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prods := matchtest.RandomProgram(rng, params)
			script := matchtest.RandomScript(rng, params, 20, 6)
			runScript(t, prods, script, workers)
		}
	}
}

func TestRandomizedCrossCheckNegation(t *testing.T) {
	params := matchtest.DefaultGenParams()
	params.NegProb = 0.5
	params.MaxCEs = 4
	for seed := int64(200); seed < 210; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 18, 5)
		runScript(t, prods, script, 8)
	}
}

// TestRandomizedCrossCheckIndexStress covers the striped hash-bucket
// path under parallelism: equality-join-heavy programs with predicate
// and negated joins, on several worker counts, cross-checked against
// brute force after every batch.
func TestRandomizedCrossCheckIndexStress(t *testing.T) {
	params := matchtest.IndexStressGenParams()
	indexed := 0
	for _, workers := range []int{1, 8} {
		for seed := int64(300); seed < 310; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prods := matchtest.RandomProgram(rng, params)
			script := matchtest.RandomScript(rng, params, 24, 5)
			m := runScript(t, prods, script, workers)
			indexed += m.IndexInfo().IndexedNodes
		}
	}
	if indexed == 0 {
		t.Error("index-stress programs produced no indexed joins; generator drifted")
	}
}

func TestLargeBatches(t *testing.T) {
	// Large batches maximise in-flight parallel activations and
	// out-of-order arrivals (the counted-cancellation path).
	params := matchtest.DefaultGenParams()
	params.Productions = 12
	for seed := int64(300); seed < 306; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 8, 25)
		runScript(t, prods, script, 8)
	}
}

func TestPaperProductionParallel(t *testing.T) {
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
	m, err := prete.New([]*ops5.Production{p}, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	m.OnInsert = tr.Insert
	m.OnRemove = tr.Remove

	batch := []ops5.Change{}
	goal := ops5.NewWME("goal", "type", "find-blk", "color", "red")
	goal.TimeTag = 1
	batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: goal})
	for i := 0; i < 20; i++ {
		color := "blue"
		if i%2 == 0 {
			color = "red"
		}
		b := ops5.NewWME("block", "id", i, "color", color, "selected", "no")
		b.TimeTag = i + 2
		batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: b})
	}
	m.Apply(batch)
	if got := len(tr.Keys()); got != 10 {
		t.Fatalf("conflict set size = %d, want 10 (red blocks)", got)
	}
	if m.Stats().Tasks == 0 {
		t.Error("no tasks executed")
	}
}

func TestWorkerCountIndependence(t *testing.T) {
	// The final conflict set must not depend on the worker count.
	params := matchtest.DefaultGenParams()
	rng := rand.New(rand.NewSource(99))
	prods := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, 15, 10)

	var ref []string
	for _, workers := range []int{1, 2, 8, 32} {
		m, err := prete.New(prods, workers)
		if err != nil {
			t.Fatal(err)
		}
		tr := matchtest.NewTracker()
		m.OnInsert = tr.Insert
		m.OnRemove = tr.Remove
		for _, batch := range script.Batches {
			m.Apply(batch)
		}
		keys := tr.Keys()
		if ref == nil {
			ref = keys
			continue
		}
		if d := matchtest.Diff(ref, keys); d != "" {
			t.Fatalf("workers=%d diverges:\n%s", workers, d)
		}
	}
}

// TestApplySteadyStateAllocs bounds what Apply allocates once its tables
// and scratch have grown: on a fan-out program (siblings sharing left
// memories) a batch may allocate the tokens its joins emit and nothing
// else — no memory entry, bucket, task, seed list or counter. With no
// conflict-set callbacks wired, flush builds no instantiation, so the
// per-node PairsEmitted count is the whole allowance (not-node emits pass
// their input token on, which only leaves slack).
func TestApplySteadyStateAllocs(t *testing.T) {
	params := matchtest.FanOutGenParams(8)
	params.Productions = 16
	rng := rand.New(rand.NewSource(500))
	prods := matchtest.RandomProgram(rng, params)
	var ins, del []ops5.Change
	for tag := 1; tag <= 96; tag++ {
		w := matchtest.RandomWME(rng, params)
		w.TimeTag = tag
		ins = append(ins, ops5.Change{Kind: ops5.Insert, WME: w})
		del = append(del, ops5.Change{Kind: ops5.Delete, WME: w})
	}
	for _, cfg := range []prete.Config{{Workers: 1}, {Workers: 4, SerialThreshold: -1}} {
		m, err := prete.NewWithConfig(prods, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			m.Apply(ins)
			m.Apply(del)
		}
		emitted := func() (n int64) {
			for _, e := range m.NodeProfile() {
				n += e.PairsEmitted
			}
			return n
		}
		for i := 0; i < 3; i++ {
			cycle()
		}
		const runs = 10
		before := emitted()
		allocs := testing.AllocsPerRun(runs, cycle)
		tokens := float64(emitted()-before) / (runs + 1) // AllocsPerRun warms up with one extra call
		if tokens == 0 {
			t.Fatalf("%+v: the script emitted no tokens", cfg)
		}
		if allocs > tokens+2 {
			t.Errorf("%+v: %.0f allocs per insert+delete cycle, want at most the %.0f tokens emitted", cfg, allocs, tokens)
		}
		t.Logf("%+v: %.0f allocs, %.0f tokens per cycle", cfg, allocs, tokens)
	}
}

// deepChain returns a production joining `depth` classes c0..c<depth-1>
// on one variable, and the changes that insert one matching WME per
// class, c0's last — so that c0's token runs the whole chain of joins
// depth-first in one task.
func deepChain(t *testing.T, depth int) (*ops5.Production, []ops5.Change) {
	t.Helper()
	src := "(p deep"
	for i := 0; i < depth; i++ {
		src += fmt.Sprintf(" (c%d ^a <x>)", i)
	}
	src += " --> (halt))"
	p, err := ops5.ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	var batch []ops5.Change
	for i := depth - 1; i >= 0; i-- {
		w := ops5.NewWME(fmt.Sprintf("c%d", i), "a", 7)
		w.TimeTag = depth - i
		batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: w})
	}
	return p, batch
}

// TestInlineBatchAnnouncesInOrder pins what a batch run inline on the
// caller hands the conflict set: the serial matcher's deltas, one by one
// — an instantiation made and unmade inside the batch is inserted and
// removed — while the same batch on the pool is merged to its net effect.
func TestInlineBatchAnnouncesInOrder(t *testing.T) {
	p, batch := deepChain(t, 3)
	batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: batch[0].WME})
	for _, tc := range []struct {
		cfg      prete.Config
		ins, rem int
	}{
		{prete.Config{Workers: 1}, 1, 1},
		{prete.Config{Workers: 4}, 1, 1}, // under the bypass threshold: inline
		{prete.Config{Workers: 4, SerialThreshold: -1}, 0, 0},
	} {
		m, err := prete.NewWithConfig([]*ops5.Production{p}, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var order []ops5.ChangeKind
		tr := matchtest.NewTracker()
		m.OnInsert = func(in *ops5.Instantiation) { order = append(order, ops5.Insert); tr.Insert(in) }
		m.OnRemove = func(in *ops5.Instantiation) { order = append(order, ops5.Delete); tr.Remove(in) }
		m.Apply(batch)
		if got := tr.Keys(); len(got) != 0 {
			t.Errorf("%+v: conflict set %v, want empty", tc.cfg, got)
		}
		st := m.Stats()
		if int(st.ConflictInserts) != tc.ins || int(st.ConflictRemoves) != tc.rem {
			t.Errorf("%+v: %d inserts, %d removes, want %d and %d", tc.cfg, st.ConflictInserts, st.ConflictRemoves, tc.ins, tc.rem)
		}
		if tc.ins == 1 && (len(order) != 2 || order[0] != ops5.Insert || order[1] != ops5.Delete) {
			t.Errorf("%+v: deltas announced as %v, want insert then delete", tc.cfg, order)
		}
	}
}

// TestInlineBatchPastInlineDepthIsMerged runs a join chain deeper than
// the depth-first inlining bound inline on the caller: the activations
// past the bound are queued, the batch is no longer in the serial order,
// and its deltas must go through the merge like a pool batch's. The
// second batch deletes and re-inserts the head of the chain twice over;
// merged, it nets to nothing, so the counters show which way it went.
func TestInlineBatchPastInlineDepthIsMerged(t *testing.T) {
	const depth = 12
	p, batch := deepChain(t, depth)
	prods := []*ops5.Production{p}
	head := batch[len(batch)-1].WME
	again := ops5.NewWME("c0", "a", 7)
	again.TimeTag = depth + 1
	second := []ops5.Change{
		{Kind: ops5.Delete, WME: head},
		{Kind: ops5.Insert, WME: again},
		{Kind: ops5.Delete, WME: again},
		{Kind: ops5.Insert, WME: head},
	}
	for _, workers := range []int{1, 4} {
		m, err := prete.New(prods, workers)
		if err != nil {
			t.Fatal(err)
		}
		tr := matchtest.NewTracker()
		m.OnInsert, m.OnRemove = tr.Insert, tr.Remove
		live := map[*ops5.WME]bool{}
		for bi, b := range [][]ops5.Change{batch, second} {
			for _, ch := range b {
				live[ch.WME] = ch.Kind == ops5.Insert
			}
			m.Apply(b)
			var wmes []*ops5.WME
			for w, ok := range live {
				if ok {
					wmes = append(wmes, w)
				}
			}
			if d := matchtest.Diff(matchtest.BruteForceKeys(prods, wmes), tr.Keys()); d != "" {
				t.Fatalf("workers=%d batch %d: conflict set mismatch:\n%s", workers, bi, d)
			}
		}
		st := m.Stats()
		if st.InlineBatches != 2 {
			t.Fatalf("workers=%d: %d inline batches, want 2", workers, st.InlineBatches)
		}
		if st.ConflictInserts != 1 || st.ConflictRemoves != 0 {
			t.Errorf("workers=%d: %d inserts, %d removes announced, want the merged 1 and 0",
				workers, st.ConflictInserts, st.ConflictRemoves)
		}
	}
}
