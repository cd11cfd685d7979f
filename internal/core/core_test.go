package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/workload"
)

func TestParseMatcherKind(t *testing.T) {
	cases := map[string]core.MatcherKind{
		"rete":          core.SerialRete,
		"serial":        core.SerialRete,
		"serial-rete":   core.SerialRete,
		"parallel":      core.ParallelRete,
		"parallel-rete": core.ParallelRete,
		"prete":         core.ParallelRete,
		"naive":         core.Naive,
	}
	for in, want := range cases {
		got, err := core.ParseMatcherKind(in)
		if err != nil || got != want {
			t.Errorf("ParseMatcherKind(%q) = %v, %v", in, got, err)
		}
	}
	// The §3.2 baselines are not served.
	for _, in := range []string{"quantum", "treat", "full-state", "fullstate", "oflazer"} {
		if _, err := core.ParseMatcherKind(in); err == nil {
			t.Errorf("ParseMatcherKind(%q): expected error", in)
		}
	}
}

func TestMatcherKindStringRoundTrip(t *testing.T) {
	for _, k := range []core.MatcherKind{core.SerialRete, core.ParallelRete, core.Naive} {
		got, err := core.ParseMatcherKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v -> %q -> %v, %v", k, k.String(), got, err)
		}
	}
}

// TestEngineHoldsTheMatcher: the engine's matcher is the matcher itself,
// and it reports its own work. Both Rete kinds run the parallel matcher.
func TestEngineHoldsTheMatcher(t *testing.T) {
	src := `(p x (a ^v 1) --> (halt))`
	for kind, want := range map[core.MatcherKind]string{
		core.SerialRete:   "*prete.Matcher",
		core.ParallelRete: "*prete.Matcher",
		core.Naive:        "*naive.Matcher",
	} {
		sys, err := core.NewSystem(src, core.Options{Matcher: kind, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%T", sys.Matcher); got != want {
			t.Errorf("%v: engine matcher is %s, want %s", kind, got, want)
		}
		p, ok := sys.Matcher.(engine.StatsProvider)
		if !ok {
			t.Fatalf("%v: no StatsProvider", kind)
		}
		sys.Assert(ops5.NewWME("a", "v", 1), ops5.NewWME("a", "v", 2))
		if st := p.MatchStats(); st.Changes != 2 || st.Comparisons == 0 {
			t.Errorf("%v: MatchStats = %+v, want 2 changes and some comparisons", kind, st)
		}
	}
}

func TestNewSystemParseError(t *testing.T) {
	if _, err := core.NewSystem("(p broken", core.Options{}); err == nil {
		t.Error("expected parse error")
	}
}

func TestNewSystemCompileError(t *testing.T) {
	// Predicate on unbound variable is caught at network compile time.
	src := `(p bad (a ^v > <z>) --> (halt))`
	if _, err := core.NewSystem(src, core.Options{Matcher: core.SerialRete}); err == nil {
		t.Error("expected compile error")
	}
}

// TestMonkeyBananasUnderEveryMatcher runs the served matchers through
// core and the §3.2 baselines through matchtest, each behind an engine.
func TestMonkeyBananasUnderEveryMatcher(t *testing.T) {
	for _, name := range []string{"rete", "parallel-rete", "naive", "treat", "full-state"} {
		var out strings.Builder
		var sys *engine.Engine
		if kind, err := core.ParseMatcherKind(name); err == nil {
			s, err := core.NewSystem(workload.MonkeyBananas, core.Options{
				Matcher:   kind,
				Strategy:  conflict.MEA,
				Output:    &out,
				MaxCycles: 50,
				Workers:   4,
			})
			if err != nil {
				t.Fatalf("%v: %v", name, err)
			}
			sys = s.Engine
		} else {
			prog, err := ops5.Parse(workload.MonkeyBananas)
			if err != nil {
				t.Fatal(err)
			}
			if sys, err = matchtest.NewBaseline(name, prog, conflict.MEA); err != nil {
				t.Fatalf("%v: %v", name, err)
			}
			sys.Out, sys.MaxCycles = &out, 50
		}
		if _, err := sys.Run(); err != nil {
			t.Fatalf("%v: %v", name, err)
		}
		if !sys.Halted {
			t.Errorf("%v: did not halt; output:\n%s", name, out.String())
		}
		want := []string{
			"monkey walks to the ladder",
			"monkey pushes the ladder",
			"monkey climbs the ladder",
			"monkey grabs the bananas",
			"problem solved",
		}
		got := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(got) != len(want) {
			t.Fatalf("%v: output = %q", name, out.String())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: step %d = %q, want %q", name, i, got[i], want[i])
			}
		}
	}
}

func TestTopLevelMakeLoadsInitialWM(t *testing.T) {
	src := `
(make c ^n 1)
(make c ^n 2)
(p noop (missing) --> (halt))
`
	sys, err := core.NewSystem(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.WM.Size() != 2 {
		t.Errorf("WM size = %d, want 2", sys.WM.Size())
	}
}

func TestNetworkAccessors(t *testing.T) {
	src := `(p x (a ^v 1) --> (halt))`
	par, err := core.NewSystem(src, core.Options{Matcher: core.ParallelRete})
	if err != nil {
		t.Fatal(err)
	}
	if par.ParallelMatcher() == nil {
		t.Error("parallel system accessors wrong")
	}
	if len(par.Productions()) != 1 {
		t.Errorf("productions = %d", len(par.Productions()))
	}
}

// TestSerialReteIsOneLane: a SerialRete system runs the parallel matcher
// on one lane, whatever Workers asks for.
func TestSerialReteIsOneLane(t *testing.T) {
	sys, err := core.NewSystem(`(p x (a ^v 1) --> (halt))`, core.Options{Matcher: core.SerialRete, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pm := sys.ParallelMatcher(); pm == nil || pm.Workers() != 1 {
		t.Errorf("SerialRete matcher = %v, want a one-lane parallel matcher", pm)
	}
}
