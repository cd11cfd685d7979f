package matchtest_test

import (
	"math/rand"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/rete"
)

func TestGeneratedProgramsParseRoundTrip(t *testing.T) {
	// Every generated production must render to valid OPS5 source that
	// reparses to the same rendering (parser/printer round trip on a
	// wide random corpus).
	params := matchtest.DefaultGenParams()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, p := range matchtest.RandomProgram(rng, params) {
			src := p.String()
			back, err := ops5.ParseProduction(src)
			if err != nil {
				t.Fatalf("seed %d: reparse failed: %v\n%s", seed, err, src)
			}
			if back.String() != src {
				t.Errorf("seed %d: round trip mismatch:\n%s\n---\n%s", seed, src, back.String())
			}
		}
	}
}

// TestFanOutProgramsShareABetaMemory pins what the fan-out generator is
// for: sibling productions whose first CE compiles to one beta memory
// read by several two-input nodes — positive ones with and without an
// equality key, and a not-node among them.
func TestFanOutProgramsShareABetaMemory(t *testing.T) {
	params := matchtest.FanOutGenParams(8)
	params.Productions = 16
	var keyed, unkeyed, negated bool
	for seed := int64(500); seed < 508; seed++ {
		prods := matchtest.RandomProgram(rand.New(rand.NewSource(seed)), params)
		for i, p := range prods {
			if head := prods[i-i%params.FanOut]; len(p.LHS) < 2 || p.LHS[0].String() != head.LHS[0].String() {
				t.Fatalf("seed %d: %s does not extend its run's first CE:\n%s", seed, p.Name, p)
			}
		}
		plan, err := rete.CompilePlan(prods)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range plan.Betas {
			if b.Index == 0 || len(b.Joins) < 3 {
				continue
			}
			for _, j := range b.Joins {
				switch {
				case j.Kind == rete.JoinNegative:
					negated = true
				case j.LeftKey >= 0:
					keyed = true
				default:
					unkeyed = true
				}
			}
		}
	}
	if !keyed || !unkeyed || !negated {
		t.Errorf("beta memories with 3+ readers: keyed %v, unkeyed %v, negated %v; want all", keyed, unkeyed, negated)
	}
}

func TestTrackerPanicsOnDoubleInsert(t *testing.T) {
	tr := matchtest.NewTracker()
	p := &ops5.Production{Name: "p", LHS: []*ops5.CondElement{{Class: "c"}}}
	wmes := []*ops5.WME{{TimeTag: 1}}
	tr.InsertMatch(p, wmes)
	tr.InsertMatch(p, wmes)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate instantiation count")
		}
	}()
	tr.Keys()
}

func TestScriptDeletesOnlyLiveElements(t *testing.T) {
	params := matchtest.DefaultGenParams()
	rng := rand.New(rand.NewSource(9))
	s := matchtest.RandomScript(rng, params, 50, 5)
	live := map[int]bool{}
	for _, batch := range s.Batches {
		for _, ch := range batch {
			switch ch.Kind {
			case ops5.Insert:
				if live[ch.WME.TimeTag] {
					t.Fatalf("tag %d inserted twice", ch.WME.TimeTag)
				}
				live[ch.WME.TimeTag] = true
			case ops5.Delete:
				if !live[ch.WME.TimeTag] {
					t.Fatalf("tag %d deleted while not live", ch.WME.TimeTag)
				}
				delete(live, ch.WME.TimeTag)
			}
		}
	}
}

func TestDiffFormatting(t *testing.T) {
	d := matchtest.Diff([]string{"a", "b"}, []string{"b", "c"})
	if d == "" {
		t.Fatal("expected nonempty diff")
	}
	if matchtest.Diff([]string{"x"}, []string{"x"}) != "" {
		t.Error("identical sets should produce empty diff")
	}
}
