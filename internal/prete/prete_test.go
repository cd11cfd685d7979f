package prete_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
)

func runScript(t *testing.T, prods []*ops5.Production, script *matchtest.Script, cfg prete.Config) *prete.Matcher {
	t.Helper()
	m, err := prete.NewWithConfig(prods, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	tr := matchtest.NewTracker()
	m.Sink = tr

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
			t.Fatalf("batch %d (%+v): conflict set mismatch:\n%s", bi, cfg, d)
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
			runScript(t, prods, script, prete.Config{Workers: workers})
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
		runScript(t, prods, script, prete.Config{Workers: 8})
	}
}

// pooled is the multi-lane configuration of the cross-checks that claim
// the parallel path: with the serial bypass off, every batch offers its
// lanes to the pool instead of running inline on the caller, as the
// default threshold would run these small batches.
var pooled = prete.Config{Workers: 8, SerialThreshold: -1}

// TestRandomizedCrossCheckIndexStress covers the striped hash-bucket
// path under parallelism: equality-join-heavy programs with predicate
// and negated joins, on one lane and on the pool, cross-checked against
// brute force after every batch.
func TestRandomizedCrossCheckIndexStress(t *testing.T) {
	params := matchtest.IndexStressGenParams()
	indexed := 0
	var wakeups int64
	for _, cfg := range []prete.Config{{Workers: 1}, pooled} {
		for seed := int64(300); seed < 310; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prods := matchtest.RandomProgram(rng, params)
			script := matchtest.RandomScript(rng, params, 24, 5)
			m := runScript(t, prods, script, cfg)
			indexed += m.IndexInfo().IndexedNodes
			wakeups += m.Stats().Wakeups
		}
	}
	if indexed == 0 {
		t.Error("index-stress programs produced no indexed joins; generator drifted")
	}
	if wakeups == 0 {
		t.Errorf("%+v: no batch borrowed a lane; the parallel path went untested", pooled)
	}
}

func TestLargeBatches(t *testing.T) {
	// Large batches maximise in-flight parallel activations and
	// out-of-order arrivals (the counted-cancellation path), so they run
	// on the pool.
	params := matchtest.DefaultGenParams()
	params.Productions = 12
	var wakeups int64
	for seed := int64(300); seed < 306; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 8, 25)
		wakeups += runScript(t, prods, script, pooled).Stats().Wakeups
	}
	if wakeups == 0 {
		t.Errorf("%+v: no batch borrowed a lane; the parallel path went untested", pooled)
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
	m, err := prete.NewWithConfig([]*ops5.Production{p}, prete.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	m.Sink = tr

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
		m, err := prete.NewWithConfig(prods, prete.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tr := matchtest.NewTracker()
		m.Sink = tr
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

// TestApplySteadyStateAllocs bounds what Apply allocates once its tables,
// scratch and token pool have grown, on a fan-out program (siblings
// sharing left memories): nothing — no memory entry, bucket, task, seed
// list or counter — in an insert batch or a delete batch. A delete names
// the token it retracts by its base token and WME instead of building
// it, and the tokens an insert batch's joins emit are built into the ones
// the previous delete batch freed. With no conflict-set callbacks wired,
// flush builds no instantiation. It was "tokens emitted + 2" per insert
// batch while every emitted token was a new allocation; it is 2 on one
// lane, and on more lanes a refill chunk per extra lane may be stranded.
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
		emitted := func() (n int64) {
			for _, e := range m.NodeProfile() {
				n += e.PairsEmitted
			}
			return n
		}
		for i := 0; i < 3; i++ {
			m.Apply(ins)
			m.Apply(del)
		}
		const runs = 10
		var insAllocs, delAllocs, tokens float64
		for i := 0; i < runs; i++ {
			before := emitted()
			insAllocs += allocsOf(func() { m.Apply(ins) }) / runs
			tokens += float64(emitted()-before) / runs
			delAllocs += allocsOf(func() { m.Apply(del) }) / runs
		}
		if tokens == 0 {
			t.Fatalf("%+v: the insert batch emitted no tokens", cfg)
		}
		// A lane may keep a refill chunk it does not use while another
		// finds the pool empty and builds new tokens, so a batch on
		// several lanes may still add a chunk per extra lane to the pool.
		budget := 2 + float64((m.Workers()-1)*prete.PoolChunk)
		if insAllocs > budget {
			t.Errorf("%+v: %.1f allocs per insert batch of %.0f emitted tokens, want at most %.0f", cfg, insAllocs, tokens, budget)
		}
		if delAllocs > 2 {
			t.Errorf("%+v: %.1f allocs per delete batch, want at most 2", cfg, delAllocs)
		}
		t.Logf("%+v: insert batch %.1f allocs for %.0f tokens emitted, delete batch %.1f allocs", cfg, insAllocs, tokens, delAllocs)
	}
}

// allocsOf returns the heap allocations one call of f makes, counted as
// testing.AllocsPerRun counts them (GOMAXPROCS at 1 for the call).
func allocsOf(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - before)
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
		sink := &logSink{tr: matchtest.NewTracker()}
		m.Sink = sink
		m.Apply(batch)
		if got := sink.tr.Keys(); len(got) != 0 {
			t.Errorf("%+v: conflict set %v, want empty", tc.cfg, got)
		}
		st := m.Stats()
		if int(st.ConflictInserts) != tc.ins || int(st.ConflictRemoves) != tc.rem {
			t.Errorf("%+v: %d inserts, %d removes, want %d and %d", tc.cfg, st.ConflictInserts, st.ConflictRemoves, tc.ins, tc.rem)
		}
		if tc.ins == 1 && (len(sink.log) != 2 || sink.log[0][0] != '+' || sink.log[1][0] != '-') {
			t.Errorf("%+v: deltas announced as %v, want insert then delete", tc.cfg, sink.log)
		}
	}
}

// TestDeepChainRunsSoloInOrder runs a twelve-join chain inline on the
// caller, on one lane and on four: however deep an activation's
// downstream chain, it runs depth-first inside its seed, so the batch
// keeps the serial order and its deltas are announced one by one — the
// serial matcher's sequence of deltas, not the merged net
// effect. The second batch deletes and re-inserts the head of the chain
// twice over, so the two differ.
func TestDeepChainRunsSoloInOrder(t *testing.T) {
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
	net, err := rete.Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	want := &logSink{}
	net.Sink = want
	for _, workers := range []int{1, 4} {
		m, err := prete.NewWithConfig(prods, prete.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := &logSink{tr: matchtest.NewTracker()}
		m.Sink = got
		live := map[*ops5.WME]bool{}
		for bi, b := range [][]ops5.Change{batch, second} {
			for _, ch := range b {
				live[ch.WME] = ch.Kind == ops5.Insert
			}
			if workers == 1 {
				net.Apply(b)
			}
			m.Apply(b)
			var wmes []*ops5.WME
			for w, ok := range live {
				if ok {
					wmes = append(wmes, w)
				}
			}
			if d := matchtest.Diff(matchtest.BruteForceKeys(prods, wmes), got.tr.Keys()); d != "" {
				t.Fatalf("workers=%d batch %d: conflict set mismatch:\n%s", workers, bi, d)
			}
		}
		if st := m.Stats(); st.InlineBatches != 2 {
			t.Fatalf("workers=%d: %d inline batches, want 2", workers, st.InlineBatches)
		}
		if fmt.Sprint(got.log) != fmt.Sprint(want.log) {
			t.Errorf("workers=%d: deltas announced as %v, want serial Rete's %v", workers, got.log, want.log)
		}
	}
	if len(want.log) != 5 {
		t.Fatalf("serial Rete announced %v, want 3 inserts and 2 removes", want.log)
	}
}

// logSink records each delta it receives as "+ key" or "- key", in
// order, and passes it on to tr when tr is set.
type logSink struct {
	log []string
	tr  *matchtest.Tracker
}

func (s *logSink) InsertMatch(p *ops5.Production, wmes []*ops5.WME) {
	s.log = append(s.log, string(ops5.AppendKey([]byte("+ "), p, wmes)))
	if s.tr != nil {
		s.tr.InsertMatch(p, wmes)
	}
}

func (s *logSink) RemoveMatch(p *ops5.Production, wmes []*ops5.WME) {
	s.log = append(s.log, string(ops5.AppendKey([]byte("- "), p, wmes)))
	if s.tr != nil {
		s.tr.RemoveMatch(p, wmes)
	}
}
