package matchtest_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
	"repro/internal/treat"
)

// replayRete runs a script through the serial Rete network and returns
// the per-batch conflict-set key snapshots.
func replayRete(t *testing.T, prods []*ops5.Production, script *matchtest.Script) [][]string {
	t.Helper()
	net, err := rete.Compile(prods)
	if err != nil {
		t.Fatalf("rete compile: %v", err)
	}
	tr := matchtest.NewTracker()
	net.OnInsert = tr.Insert
	net.OnRemove = tr.Remove
	return matchtest.ReplayKeys(net, tr, script)
}

// replayPrete runs the same script through the parallel matcher.
func replayPrete(t *testing.T, prods []*ops5.Production, script *matchtest.Script, cfg prete.Config) [][]string {
	t.Helper()
	m, err := prete.NewWithConfig(prods, cfg)
	if err != nil {
		t.Fatalf("prete new: %v", err)
	}
	tr := matchtest.NewTracker()
	m.OnInsert = tr.Insert
	m.OnRemove = tr.Remove
	return matchtest.ReplayKeys(m, tr, script)
}

// replayTreat runs the same script through the TREAT matcher.
func replayTreat(t *testing.T, prods []*ops5.Production, script *matchtest.Script) [][]string {
	t.Helper()
	m, err := treat.New(prods)
	if err != nil {
		t.Fatalf("treat new: %v", err)
	}
	tr := matchtest.NewTracker()
	m.OnInsert = tr.Insert
	m.OnRemove = tr.Remove
	return matchtest.ReplayKeys(m, tr, script)
}

// diffBatches fails the test at the first batch where got's conflict set
// differs from want's, the serial Rete's.
func diffBatches(t *testing.T, label string, want, got [][]string) {
	t.Helper()
	for b := range want {
		if d := matchtest.Diff(want[b], got[b]); d != "" {
			t.Fatalf("%s batch %d: diverges from rete:\n%s", label, b, d)
		}
	}
}

// schedulerMatrix is every combination the shared left memories must be
// right under: one lane (inline on the caller), two and four lanes, a
// cap above GOMAXPROCS (clamped to it), serial bypass on and off.
func schedulerMatrix() []prete.Config {
	var cfgs []prete.Config
	for _, workers := range []int{1, 2, 4, 16} {
		for _, threshold := range []int{0, -1} {
			cfgs = append(cfgs, prete.Config{Workers: workers, SerialThreshold: threshold})
		}
	}
	return cfgs
}

// withChurn appends a batch that inserts n fresh elements and deletes
// them all again: a no-op for the conflict set in which every token the
// elements create is inserted and deleted within one batch, so on
// several lanes a delete can reach a (shared) memory before its insert
// and must cancel against it there.
func withChurn(rng *rand.Rand, p matchtest.GenParams, s *matchtest.Script, n int) {
	tag := 0
	for _, batch := range s.Batches {
		for _, ch := range batch {
			tag = max(tag, ch.WME.TimeTag)
		}
	}
	var ins, del []ops5.Change
	for i := 0; i < n; i++ {
		w := matchtest.RandomWME(rng, p)
		tag++
		w.TimeTag = tag
		ins = append(ins, ops5.Change{Kind: ops5.Insert, WME: w})
		del = append(del, ops5.Change{Kind: ops5.Delete, WME: w})
	}
	s.Batches = append(s.Batches, append(ins, del...))
}

// TestDifferentialPreteVsRete is the parallel-vs-serial property test:
// random change sequences replayed through both matchers must yield
// identical conflict sets after every batch. Unlike the brute-force
// cross-checks, the serial Rete is the oracle here, so the programs and
// scripts can be much larger (brute force is exponential in CE count).
// The fan-out case generates sibling productions below one beta memory
// (negated siblings among them) — the joins whose left memory the
// parallel matcher shares — and runs the whole scheduler matrix.
func TestDifferentialPreteVsRete(t *testing.T) {
	cases := []struct {
		name    string
		params  matchtest.GenParams
		batches int
		cfgs    []prete.Config
	}{
		{"default", matchtest.DefaultGenParams(), 40, []prete.Config{{Workers: 4}}},
		{"index-stress", matchtest.IndexStressGenParams(), 40, []prete.Config{{Workers: 8}, {Workers: 8, SerialThreshold: -1}}},
		{"fan-out", matchtest.FanOutGenParams(8), 16, schedulerMatrix()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := tc.params
			params.Productions = 16
			for seed := int64(500); seed < 508; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prods := matchtest.RandomProgram(rng, params)
				script := matchtest.RandomScript(rng, params, tc.batches, 12)
				withChurn(rng, params, script, 24)
				want := replayRete(t, prods, script)
				for _, cfg := range tc.cfgs {
					diffBatches(t, fmt.Sprintf("seed %d %+v prete", seed, cfg), want, replayPrete(t, prods, script, cfg))
				}
			}
		})
	}
}

// FuzzDifferentialPreteVsRete explores the same property from fuzzed
// seeds and shape parameters: any (program, script) pair the generators
// can produce must match between the serial and parallel matchers.
// fanOut sets the sibling run length (0 and 1: none); flags bit 1 turns
// the serial bypass off (bit 0 is unused).
func FuzzDifferentialPreteVsRete(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(8), uint8(0), uint8(0))
	f.Add(int64(42), uint8(4), uint8(3), uint8(1), uint8(6), uint8(2))
	f.Add(int64(7), uint8(2), uint8(4), uint8(16), uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, maxCEs, values, workers, fanOut, flags uint8) {
		params := matchtest.DefaultGenParams()
		params.MaxCEs = 1 + int(maxCEs)%4
		params.Values = 2 + int(values)%5
		params.NegProb = 0.3
		params.FanOut = int(fanOut) % 9
		cfg := prete.Config{Workers: 1 + int(workers)%16}
		if flags&2 != 0 {
			cfg.SerialThreshold = -1
		}
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 15, 8)
		withChurn(rng, params, script, 8)
		want := replayRete(t, prods, script)
		got := replayPrete(t, prods, script, cfg)
		for b := range want {
			if d := matchtest.Diff(want[b], got[b]); d != "" {
				t.Fatalf("seed %d %+v batch %d: prete diverges from rete:\n%s", seed, cfg, b, d)
			}
		}
	})
}

// TestDifferentialTreatVsRete puts TREAT under the same generators: its
// hash-bucketed condition-element memories must select the same
// instantiations as the serial Rete over the default, the sibling
// fan-out and the equality-heavy index-stress shapes.
func TestDifferentialTreatVsRete(t *testing.T) {
	cases := map[string]matchtest.GenParams{
		"default":      matchtest.DefaultGenParams(),
		"fan-out":      matchtest.FanOutGenParams(8),
		"index-stress": matchtest.IndexStressGenParams(),
	}
	for name, params := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := int64(600); seed < 606; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prods := matchtest.RandomProgram(rng, params)
				script := matchtest.RandomScript(rng, params, 30, 6)
				diffBatches(t, fmt.Sprintf("seed %d treat", seed), replayRete(t, prods, script), replayTreat(t, prods, script))
			}
		})
	}
}

// FuzzDifferentialTreatVsRete explores TREAT against the serial Rete
// from fuzzed seeds and shape parameters; shape picks the generator
// (default, fan-out, index-stress).
func FuzzDifferentialTreatVsRete(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(0))
	f.Add(int64(42), uint8(4), uint8(3), uint8(1))
	f.Add(int64(7), uint8(2), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, maxCEs, values, shape uint8) {
		params := []matchtest.GenParams{
			matchtest.DefaultGenParams(), matchtest.FanOutGenParams(4), matchtest.IndexStressGenParams(),
		}[int(shape)%3]
		params.MaxCEs = 1 + int(maxCEs)%4
		params.Values = 2 + int(values)%5
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 15, 8)
		diffBatches(t, fmt.Sprintf("seed %d treat", seed), replayRete(t, prods, script), replayTreat(t, prods, script))
	})
}

// TestOnePlanManyExecutors pins the plan's immutability: one plan,
// compiled once, is run at the same time by two serial networks and a
// parallel matcher, each on its own goroutine with its own memories, and
// all three must agree after every batch (under -race, any write through
// the shared plan is reported).
func TestOnePlanManyExecutors(t *testing.T) {
	params := matchtest.FanOutGenParams(8)
	params.Productions = 16
	for seed := int64(700); seed < 704; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 24, 12)
		withChurn(rng, params, script, 24)
		plan, err := rete.CompilePlan(prods)
		if err != nil {
			t.Fatal(err)
		}
		pm := prete.NewOnPlan(plan, prete.Config{Workers: 4, SerialThreshold: -1})
		trackers := [3]*matchtest.Tracker{matchtest.NewTracker(), matchtest.NewTracker(), matchtest.NewTracker()}
		var executors [3]matchtest.ApplyMatcher
		for i := 0; i < 2; i++ {
			net := rete.NewNetwork(plan)
			net.OnInsert, net.OnRemove = trackers[i].Insert, trackers[i].Remove
			executors[i] = net
		}
		pm.OnInsert, pm.OnRemove = trackers[2].Insert, trackers[2].Remove
		executors[2] = pm

		var got [3][][]string
		var wg sync.WaitGroup
		for i := range executors {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = matchtest.ReplayKeys(executors[i], trackers[i], script)
			}(i)
		}
		wg.Wait()
		diffBatches(t, fmt.Sprintf("seed %d second network", seed), got[0], got[1])
		diffBatches(t, fmt.Sprintf("seed %d prete on the shared plan", seed), got[0], got[2])
	}
}

// skewedProgram returns a program whose activations concentrate on one
// join (a goal joined against every block), so one lane works while the
// others idle — the paper's load-imbalance shape.
func skewedProgram(t testing.TB) []*ops5.Production {
	t.Helper()
	src := []string{`
(p hot-pair
    (goal ^type pick ^color <c>)
    (block ^id <i> ^color <c>)
    (block ^id <j> ^color <c>)
  -->
    (make out ^r 1))`, `
(p cold
    (marker ^id <m>)
  -->
    (make out ^r 2))`,
	}
	var prods []*ops5.Production
	for i, s := range src {
		p, err := ops5.ParseProduction(s)
		if err != nil {
			t.Fatalf("parse production %d: %v", i, err)
		}
		p.Order = i
		prods = append(prods, p)
	}
	return prods
}

// skewedBatches builds two insert batches for skewedProgram: first many
// same-colored blocks and a few markers, then the goal. The goal's one
// change fans out into a token per block, each with a block-count scan
// of hot-pair's second join behind it — quadratic work from a single
// seed, all of it on the lane that claims the goal.
func skewedBatches(blocks int) [][]ops5.Change {
	tag := 1
	add := func(batch []ops5.Change, w *ops5.WME) []ops5.Change {
		w.TimeTag = tag
		tag++
		return append(batch, ops5.Change{Kind: ops5.Insert, WME: w})
	}
	var memory []ops5.Change
	for i := 0; i < blocks; i++ {
		memory = add(memory, ops5.NewWME("block", "id", i, "color", "red"))
	}
	for i := 0; i < 4; i++ {
		memory = add(memory, ops5.NewWME("marker", "id", i))
	}
	goal := add(nil, ops5.NewWME("goal", "type", "pick", "color", "red"))
	return [][]ops5.Change{memory, goal}
}

// TestSkewedWorkloadOnEightLanes runs a skewed batch on eight lanes:
// the conflict set must be right whichever lane ran what, and the
// per-worker executed counts must sum to the task total.
func TestSkewedWorkloadOnEightLanes(t *testing.T) {
	prods := skewedProgram(t)
	// The goal batch seeds one activation: keep it off the serial bypass.
	m, err := prete.NewWithConfig(prods, prete.Config{Workers: 8, SerialThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	m.OnInsert = tr.Insert
	m.OnRemove = tr.Remove
	for _, batch := range skewedBatches(256) {
		m.Apply(batch)
	}

	st := m.Stats()
	if st.Tasks == 0 {
		t.Fatal("no tasks executed")
	}
	if len(st.PerWorker) != 8 {
		t.Fatalf("PerWorker has %d lanes, want 8", len(st.PerWorker))
	}
	var executed int64
	for _, ws := range st.PerWorker {
		executed += ws.Executed
	}
	if executed != st.Tasks {
		t.Errorf("per-worker executed sums to %d, want Tasks=%d", executed, st.Tasks)
	}

	// The conflict set must be right regardless of who ran what:
	// hot-pair matches every ordered red (i, j) pair incl. i == j, and
	// cold matches each marker.
	if got, want := len(tr.Keys()), 256*256+4; got != want {
		t.Errorf("conflict set size = %d, want %d", got, want)
	}
}

// Example-shaped sanity check that the differential harness catches
// divergence (guards the test itself): perturbing one snapshot key must
// produce a non-empty diff.
func TestDifferentialHarnessDetectsDivergence(t *testing.T) {
	a := []string{"p0[1,2]", "p1[3]"}
	b := []string{"p0[1,2]", fmt.Sprintf("p1[%d]", 4)}
	if matchtest.Diff(a, b) == "" {
		t.Fatal("diff failed to flag divergent snapshots")
	}
}
