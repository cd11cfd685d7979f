package engine

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/ops5"
	"repro/internal/wm"
)

// TestEvalRHSAllocs gates the act phase: in steady state, evaluating a
// production with bind, compute, make, modify and write allocates the
// elements it makes and nothing else. Variables are read through their
// compiled slots, fields are built in the engine's buffer and changes
// appended to the caller's. Out is nil, as in psmd, so write formats
// nothing.
func TestEvalRHSAllocs(t *testing.T) {
	p, err := ops5.ParseProduction(`
(p act
    (goal ^n <n> ^s <s>)
    (item ^n <n> ^v <v>)
  -->
    (bind <w> (compute <v> * 2 + <n>))
    (make out ^n <n> ^s <s> ^w <w>)
    (modify 2 ^v (compute <v> + 1) ^seen yes)
    (write fired <n> <w>))`)
	if err != nil {
		t.Fatal(err)
	}
	goal, item := ops5.NewWME("goal", "n", 1, "s", "x"), ops5.NewWME("item", "n", 1, "v", 5)
	mem := wm.New()
	if _, err := mem.Apply([]ops5.Change{{Kind: ops5.Insert, WME: goal}, {Kind: ops5.Insert, WME: item}}); err != nil {
		t.Fatal(err)
	}
	e := New(mem, conflict.NewSet(conflict.LEX), nil)
	inst := ops5.NewInstantiation(p, []*ops5.WME{goal, item})
	consumed := map[int]bool{}
	var changes []ops5.Change
	fire := func() {
		clear(consumed)
		e.fields = e.fields[:0] // what a commit does between cycles
		if changes, err = e.evalRHS(inst, consumed, changes[:0]); err != nil {
			t.Fatal(err)
		}
	}
	fire() // grow the buffers once
	allocs := testing.AllocsPerRun(200, fire)

	want := []*ops5.WME{
		ops5.NewWME("out", "n", 1, "s", "x", "w", 15), // right to left: 5 * (2 + 1)
		ops5.NewWME("item", "n", 1, "v", 6, "seen", "yes"),
	}
	var made []*ops5.WME
	for _, ch := range changes {
		if ch.Kind == ops5.Insert {
			made = append(made, ch.WME)
		}
	}
	if len(made) != len(want) || !made[0].Equal(want[0]) || !made[1].Equal(want[1]) {
		t.Fatalf("made %v, want %v", made, want)
	}
	t.Logf("%.0f allocations per firing that makes %d elements", allocs, len(made))
	if allocs != float64(len(made)) {
		t.Errorf("%.0f allocations per firing, want %d: one per element made", allocs, len(made))
	}
}
