package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matchtest"
	"repro/internal/ops5"
)

// newSys builds a serial-Rete system for engine-semantics tests.
func newSys(t *testing.T, src string, opts core.Options) *core.System {
	t.Helper()
	sys, err := core.NewSystem(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestMakeModifyRemove(t *testing.T) {
	src := `
(p step1
    (input ^v <x>)
  -->
    (make result ^from <x> ^stage one)
    (modify 1 ^v done))

(p step2
    (input ^v done)
    (result ^stage one)
  -->
    (modify 2 ^stage two)
    (remove 1))
`
	sys := newSys(t, src, core.Options{MaxCycles: 10})
	sys.Assert(ops5.NewWME("input", "v", 41))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	elems := sys.WM.Elements()
	if len(elems) != 1 {
		t.Fatalf("final WM = %v, want single result", elems)
	}
	r := elems[0]
	if r.Class() != "result" || r.Get("stage").SymName() != "two" || r.Get("from").Num != 41 {
		t.Errorf("result = %v", r)
	}
	if sys.Fired != 2 {
		t.Errorf("fired = %d, want 2", sys.Fired)
	}
}

func TestHaltStopsImmediately(t *testing.T) {
	src := `
(p loop
    (c ^n <x>)
  -->
    (make c ^n <x>)
    (halt))
`
	sys := newSys(t, src, core.Options{MaxCycles: 100})
	sys.Assert(ops5.NewWME("c", "n", 1))
	cycles, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 1 || !sys.Halted {
		t.Errorf("cycles = %d halted = %v, want 1/true", cycles, sys.Halted)
	}
}

func TestWriteAndBind(t *testing.T) {
	src := `
(p report
    (c ^n <x>)
  -->
    (bind <y> 99)
    (write value <x> bound <y>)
    (remove 1))
`
	var out strings.Builder
	sys := newSys(t, src, core.Options{Output: &out, MaxCycles: 5})
	sys.Assert(ops5.NewWME("c", "n", 7))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "value 7 bound 99" {
		t.Errorf("write output = %q", got)
	}
}

func TestRefraction(t *testing.T) {
	// A production whose firing does not change the WMEs it matched
	// must not fire again on the same instantiation (refraction), so
	// the run terminates.
	src := `
(p observe
    (c ^n <x>)
  -->
    (write saw <x>))
`
	var out strings.Builder
	sys := newSys(t, src, core.Options{Output: &out, MaxCycles: 50})
	sys.Assert(ops5.NewWME("c", "n", 1), ops5.NewWME("c", "n", 2))
	cycles, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 2 {
		t.Errorf("cycles = %d, want 2 (one per instantiation, then quiescence)", cycles)
	}
	if sys.Fired != 2 {
		t.Errorf("fired = %d, want 2", sys.Fired)
	}
}

func TestParallelFirings(t *testing.T) {
	// With ParallelFirings = 4, four independent instantiations fire in
	// one cycle and their changes form a single batch.
	src := `
(p consume
    (c ^n <x>)
  -->
    (remove 1))
`
	sys := newSys(t, src, core.Options{MaxCycles: 10, ParallelFirings: 4})
	sys.Assert(
		ops5.NewWME("c", "n", 1), ops5.NewWME("c", "n", 2),
		ops5.NewWME("c", "n", 3), ops5.NewWME("c", "n", 4),
	)
	cycles, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 1 {
		t.Errorf("cycles = %d, want 1 (all four fire together)", cycles)
	}
	if sys.WM.Size() != 0 {
		t.Errorf("WM size = %d, want 0", sys.WM.Size())
	}
}

func TestParallelFiringsSkipConsumed(t *testing.T) {
	// Two instantiations share a WME; when the first firing removes it,
	// the second must be skipped within the same cycle.
	src := `
(p a (c ^n <x>) (d ^m <y>) --> (remove 1))
(p b (c ^n <x>) (e ^m <y>) --> (remove 1))
`
	sys := newSys(t, src, core.Options{MaxCycles: 10, ParallelFirings: 4})
	sys.Assert(ops5.NewWME("c", "n", 1), ops5.NewWME("d", "m", 1), ops5.NewWME("e", "m", 1))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Fired != 1 {
		t.Errorf("fired = %d, want 1 (second instantiation uses the consumed WME)", sys.Fired)
	}
}

func TestOnFireObserves(t *testing.T) {
	src := `(p once (c ^n 1) --> (remove 1))`
	sys := newSys(t, src, core.Options{MaxCycles: 5})
	var seen []string
	sys.OnFire = func(in *ops5.Instantiation) { seen = append(seen, in.Production.Name) }
	sys.Assert(ops5.NewWME("c", "n", 1))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "once" {
		t.Errorf("OnFire saw %v", seen)
	}
}

func TestMEAOrdersByGoalRecency(t *testing.T) {
	// Under MEA the instantiation whose first CE matches the youngest
	// goal element fires first, even when another instantiation has a
	// younger non-goal element.
	src := `
(p old-goal (goal ^id g1) (data ^v <x>) --> (write old) (remove 2))
(p new-goal (goal ^id g2) (other ^v <x>) --> (write new) (remove 2))
`
	var out strings.Builder
	sys := newSys(t, src, core.Options{Strategy: conflict.MEA, Output: &out, MaxCycles: 3})
	sys.Assert(ops5.NewWME("goal", "id", "g1"))
	sys.Assert(ops5.NewWME("goal", "id", "g2"))
	sys.Assert(ops5.NewWME("other", "v", 1))
	sys.Assert(ops5.NewWME("data", "v", 2)) // youngest overall, but old goal
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 || lines[0] != "new" {
		t.Errorf("MEA firing order = %v, want [new old]", lines)
	}
}

func TestAllMatchersAgreeOnRun(t *testing.T) {
	// The same program must produce the same final WM and firing count
	// under every matcher, and every matcher reports its own work.
	src := `
(p promote
    (item ^rank <r> ^state raw)
    (threshold ^min <m>)
   -(blocked ^rank <r>)
  -->
    (modify 1 ^state cooked))

(p finish
    (threshold ^min <m>)
   -(item ^state raw)
  -->
    (remove 1)
    (halt))
`
	// The three served matcher kinds come from core, the §3.2 baselines from
	// matchtest, each behind its own engine.
	type run struct {
		name string
		e    *engine.Engine
	}
	var runs []run
	for _, kind := range []core.MatcherKind{core.SerialRete, core.ParallelRete, core.Naive} {
		runs = append(runs, run{kind.String(), newSys(t, src, core.Options{Matcher: kind}).Engine})
	}
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"treat", "full-state"} {
		e, err := matchtest.NewBaseline(name, prog, conflict.LEX)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs = append(runs, run{name, e})
	}
	type outcome struct {
		fired int
		wm    string
	}
	var ref *outcome
	for _, r := range runs {
		name, e := r.name, r.e
		e.MaxCycles = 50
		e.Load([]*ops5.WME{
			ops5.NewWME("item", "rank", 1, "state", "raw"),
			ops5.NewWME("item", "rank", 2, "state", "raw"),
			ops5.NewWME("item", "rank", 3, "state", "raw"),
			ops5.NewWME("blocked", "rank", 9),
			ops5.NewWME("threshold", "min", 0),
		})
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p, ok := e.Matcher.(engine.StatsProvider); !ok || p.MatchStats().Changes == 0 {
			t.Errorf("%s reports no match work", name)
		}
		var b strings.Builder
		for _, w := range e.WM.Elements() {
			b.WriteString(w.String())
			b.WriteString("\n")
		}
		got := &outcome{fired: e.Fired, wm: b.String()}
		if ref == nil {
			ref = got
			continue
		}
		if got.fired != ref.fired || got.wm != ref.wm {
			t.Errorf("%s diverges: fired %d vs %d\nwm:\n%svs:\n%s",
				name, got.fired, ref.fired, got.wm, ref.wm)
		}
	}
}

func TestRemoveTwiceErrors(t *testing.T) {
	src := `(p dup (c ^n <x>) --> (remove 1) (remove 1))`
	sys := newSys(t, src, core.Options{MaxCycles: 5})
	sys.Assert(ops5.NewWME("c", "n", 1))
	if _, err := sys.Run(); err == nil {
		t.Fatal("expected error removing the same CE twice")
	}
}

// loopSrc is a program that never quiesces: every firing makes a fresh
// WME that re-satisfies the production.
const loopSrc = `
(p loop
    (c ^n <x>)
  -->
    (make c ^n <x>))
`

func TestRunContextCycleLimit(t *testing.T) {
	sys := newSys(t, loopSrc, core.Options{})
	sys.Assert(ops5.NewWME("c", "n", 1))
	n, err := sys.RunContext(context.Background(), 10)
	if !errors.Is(err, engine.ErrCycleLimit) {
		t.Fatalf("RunContext err = %v, want ErrCycleLimit", err)
	}
	if n != 10 {
		t.Fatalf("RunContext ran %d cycles, want 10", n)
	}
	// Run keeps its historical contract: hitting MaxCycles is not an
	// error.
	sys.MaxCycles = 5
	if n, err := sys.Run(); err != nil || n != 5 {
		t.Fatalf("Run = (%d, %v), want (5, nil)", n, err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	sys := newSys(t, loopSrc, core.Options{})
	sys.Assert(ops5.NewWME("c", "n", 1))
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	sys.OnFire = func(*ops5.Instantiation) {
		fired++
		if fired == 3 {
			cancel()
		}
	}
	n, err := sys.RunContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	if n != 3 {
		t.Fatalf("RunContext ran %d cycles before cancel, want 3", n)
	}
}

func TestRunContextQuiescenceIsNil(t *testing.T) {
	src := `(p once (c ^n <x>) --> (remove 1))`
	sys := newSys(t, src, core.Options{})
	sys.Assert(ops5.NewWME("c", "n", 1))
	n, err := sys.RunContext(context.Background(), 50)
	if err != nil || n != 1 {
		t.Fatalf("RunContext = (%d, %v), want (1, nil)", n, err)
	}
}
