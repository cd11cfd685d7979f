package prete_test

import (
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
		t.Cleanup(m.Close)
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
