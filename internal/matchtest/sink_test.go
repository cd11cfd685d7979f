package matchtest_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/matchtest"
	"repro/internal/naive"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
	"repro/internal/wm"
)

// sinkEngine builds an engine over prods whose matcher (rete, prete-1,
// prete-2 or naive) feeds a fresh conflict set either as its Sink or,
// for the two Rete executors, through the Hooks adapter (OnInsert =
// cs.Insert, OnRemove = cs.Remove). Two lanes run with the serial
// bypass off, so every batch goes through the flush's net merge.
func sinkEngine(t *testing.T, kind string, prods []*ops5.Production, strategy conflict.Strategy, viaHooks bool) *engine.Engine {
	t.Helper()
	cs := conflict.NewSet(strategy)
	var m engine.Matcher
	var sink *ops5.MatchSink
	var hooks *ops5.Hooks
	switch kind {
	case "rete":
		net, err := rete.Compile(prods)
		if err != nil {
			t.Fatal(err)
		}
		m, sink, hooks = net, &net.Sink, &net.Hooks
	case "prete-1", "prete-2":
		workers := 1
		if kind == "prete-2" {
			workers = 2
		}
		pm, err := prete.NewWithConfig(prods, prete.Config{Workers: workers, SerialThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		m, sink, hooks = pm, &pm.Sink, &pm.Hooks
	case "naive":
		nm, err := naive.New(prods, cs)
		if err != nil {
			t.Fatal(err)
		}
		m = nm
	}
	switch {
	case viaHooks:
		hooks.OnInsert, hooks.OnRemove = cs.Insert, cs.Remove
	case sink != nil:
		*sink = cs
	}
	e := engine.New(wm.New(), cs, m)
	e.ParallelFirings = 2
	return e
}

// setState is what two conflict sets must agree on: the keys in
// strategy order, the size and the refraction marks.
func setState(cs *conflict.Set) string {
	var keys []string
	for _, in := range cs.Instantiations() {
		keys = append(keys, in.Key())
	}
	return fmt.Sprintf("len %d\norder %v\nfired %v", cs.Len(), keys, cs.FiredKeys())
}

// restored rebuilds cs in a fresh set, as crash recovery does: every
// match re-inserted, then the fired keys marked.
func restored(cs *conflict.Set) *conflict.Set {
	out := conflict.NewSet(cs.Strategy())
	for _, in := range cs.Instantiations() {
		out.InsertMatch(in.Production, in.WMEs)
	}
	for _, k := range cs.FiredKeys() {
		out.MarkFired(k)
	}
	return out
}

// TestSinkAgreesWithHookAdapter feeds one random change sequence to two
// engines per Rete executor and strategy, one whose matcher sends
// matches to its conflict set as the Sink and one whose matcher sends
// built instantiations through OnInsert/OnRemove, and fires two
// instantiations per cycle in both. After every batch and every cycle
// the two sets must list the same keys in the same order, hold as many
// entries and carry the same refraction marks, and a set rebuilt from
// the matches and fired keys must equal them. Naive has no hooks, so
// its arm runs one engine and checks only the rebuild. Each batch
// asserts, retracts, and asserts and retracts one element within
// itself, which a two-lane prete cancels in its net merge.
func TestSinkAgreesWithHookAdapter(t *testing.T) {
	params := matchtest.DefaultGenParams()
	params.Productions = 10
	for _, kind := range []string{"rete", "prete-1", "prete-2", "naive"} {
		for _, strategy := range []conflict.Strategy{conflict.LEX, conflict.MEA} {
			t.Run(fmt.Sprintf("%s/%v", kind, strategy), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(41 + strategy)))
				prods := matchtest.RandomProgram(rng, params)
				sink := sinkEngine(t, kind, prods, strategy, false)
				engines := []*engine.Engine{sink}
				if kind != "naive" {
					engines = append(engines, sinkEngine(t, kind, prods, strategy, true))
				}
				check := func(at string) {
					t.Helper()
					got := setState(sink.CS)
					for _, hooks := range engines[1:] {
						if want := setState(hooks.CS); got != want {
							t.Fatalf("%s: through the sink\n%s\nthrough the hooks\n%s", at, got, want)
						}
					}
					if back := setState(restored(sink.CS)); back != got {
						t.Fatalf("%s: rebuilt from matches and fired keys\n%s\nwant\n%s", at, back, got)
					}
				}
				for b := 0; b < 25; b++ {
					// One batch per engine, built alike: each engine
					// gets its own elements and retracts its own.
					tmpl := make([]*ops5.WME, 1+rng.Intn(5))
					for i := range tmpl {
						tmpl[i] = matchtest.RandomWME(rng, params)
					}
					var tags []int
					for _, w := range sink.WM.Elements() {
						tags = append(tags, w.TimeTag)
					}
					var gone []int
					for i := rng.Intn(3); i > 0 && len(tags) > 0; i-- {
						k := rng.Intn(len(tags))
						gone = append(gone, tags[k])
						tags = slices.Delete(tags, k, k+1)
					}
					churn := matchtest.RandomWME(rng, params)
					for _, e := range engines {
						var batch []ops5.Change
						for _, w := range tmpl {
							batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: w.Clone()})
						}
						for _, tag := range gone {
							w, _ := e.WM.Get(tag)
							batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: w})
						}
						c := churn.Clone()
						batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: c}, ops5.Change{Kind: ops5.Delete, WME: c})
						e.ApplyChanges(batch)
					}
					check(fmt.Sprintf("batch %d", b))
					for c := rng.Intn(3); c > 0; c-- {
						okS, errS := sink.Step()
						if errS != nil {
							t.Fatalf("batch %d: Step() through the sink: %v", b, errS)
						}
						for _, hooks := range engines[1:] {
							if okH, errH := hooks.Step(); errH != nil || okS != okH {
								t.Fatalf("batch %d: Step() = %v through the sink; %v, %v through the hooks", b, okS, okH, errH)
							}
						}
						check(fmt.Sprintf("batch %d, cycle %d", b, sink.Cycles))
					}
				}
				if sink.Fired == 0 {
					t.Fatal("nothing fired: the sequence never exercised refraction")
				}
			})
		}
	}
}
