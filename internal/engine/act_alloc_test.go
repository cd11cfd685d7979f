package engine

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/ops5"
	"repro/internal/wm"
)

// TestEvalRHSAllocs gates the act phase: in steady state, evaluating a
// production with bind, compute, make, modify and write allocates
// nothing. Variables are read through their compiled slots, the
// elements it makes are carved from working memory's slab, their fields
// built in the engine's buffer and changes appended to the caller's.
// Out is nil, as in psmd, so write formats nothing.
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
	// The memory's first chunk holds 16 elements: the firing above and
	// the seven AllocsPerRun makes (one warm-up, six counted) carve 16,
	// so the count is exact, none of it a chunk.
	allocs := testing.AllocsPerRun(6, fire)

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
	if allocs != 0 {
		t.Errorf("%.0f allocations per firing, want 0", allocs)
	}
}
