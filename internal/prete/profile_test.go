package prete_test

import (
	"strings"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/prete"
)

func TestNodeProfileCountsParallelWork(t *testing.T) {
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

	if prof := m.NodeProfile(); len(prof) != 0 {
		t.Fatalf("profile before any activation = %v, want empty", prof)
	}

	goal := ops5.NewWME("goal", "type", "find-blk", "color", "red")
	goal.TimeTag = 1
	b1 := ops5.NewWME("block", "id", 1, "color", "red", "selected", "no")
	b1.TimeTag = 2
	b2 := ops5.NewWME("block", "id", 2, "color", "blue", "selected", "no")
	b2.TimeTag = 3
	m.Apply([]ops5.Change{
		{Kind: ops5.Insert, WME: goal},
		{Kind: ops5.Insert, WME: b1},
		{Kind: ops5.Insert, WME: b2},
	})
	if got, n := tr.Keys(), m.Stats().ConflictInserts; len(got) != 1 || n != 1 {
		t.Fatalf("conflict set = %v after %d inserts, want one instantiation inserted once", got, n)
	}

	prof := m.NodeProfile()
	if len(prof) == 0 {
		t.Fatal("profile empty after activations")
	}
	var emitted int64
	for i, e := range prof {
		if e.Activations <= 0 {
			t.Errorf("entry %d: activations = %d, want > 0", i, e.Activations)
		}
		if e.Label == "" {
			t.Errorf("entry %d: empty label", i)
		}
		if i > 0 && prof[i-1].NodeID >= e.NodeID {
			t.Errorf("profile not in node-ID order: %d then %d", prof[i-1].NodeID, e.NodeID)
		}
		emitted += e.PairsEmitted
	}
	if emitted == 0 {
		t.Error("no pairs emitted despite a match")
	}
}

// TestNodeProfileCountsJoinWork profiles a one-lane matcher, the
// configuration a served Rete session runs.
func TestNodeProfileCountsJoinWork(t *testing.T) {
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
	m, err := prete.NewWithConfig([]*ops5.Production{p}, prete.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	m.Sink = tr

	if prof := m.NodeProfile(); len(prof) != 0 {
		t.Fatalf("profile before any activation = %v, want empty", prof)
	}

	goal := ops5.NewWME("goal", "type", "find-blk", "color", "red")
	goal.TimeTag = 1
	b1 := ops5.NewWME("block", "id", 1, "color", "red", "selected", "no")
	b1.TimeTag = 2
	b2 := ops5.NewWME("block", "id", 2, "color", "blue", "selected", "no")
	b2.TimeTag = 3
	m.Apply([]ops5.Change{
		{Kind: ops5.Insert, WME: goal},
		{Kind: ops5.Insert, WME: b1},
		{Kind: ops5.Insert, WME: b2},
	})
	if got, n := tr.Keys(), m.Stats().ConflictInserts; len(got) != 1 || n != 1 {
		t.Fatalf("conflict set = %v after %d inserts, want one instantiation inserted once", got, n)
	}

	prof := m.NodeProfile()
	if len(prof) == 0 {
		t.Fatal("profile empty after activations")
	}
	var acts, emitted int64
	for i, e := range prof {
		if e.Activations <= 0 {
			t.Errorf("entry %d: activations = %d, want > 0", i, e.Activations)
		}
		if e.Label == "" {
			t.Errorf("entry %d: empty label", i)
		}
		if len(e.Productions) != 1 || e.Productions[0] != "find-colored-blk" {
			t.Errorf("entry %d: productions = %v", i, e.Productions)
		}
		if i > 0 && prof[i-1].NodeID >= e.NodeID {
			t.Errorf("profile not in node-ID order: %d then %d", prof[i-1].NodeID, e.NodeID)
		}
		acts += e.Activations
		emitted += e.PairsEmitted
	}
	// One instantiation reached the conflict set, so at least one token
	// crossed the final join.
	if emitted == 0 {
		t.Error("no pairs emitted despite a match")
	}

	// Deletions activate nodes too: the profile keeps growing.
	m.Apply([]ops5.Change{{Kind: ops5.Delete, WME: goal}})
	var acts2 int64
	for _, e := range m.NodeProfile() {
		acts2 += e.Activations
	}
	if acts2 <= acts {
		t.Errorf("activations after delete = %d, want > %d", acts2, acts)
	}
}

func TestNodeProfileLabelsNegation(t *testing.T) {
	src := `
(p alone
    (task ^id <i>)
   -(lock ^task <i>)
  -->
    (remove 1))
`
	p, err := ops5.ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := prete.NewWithConfig([]*ops5.Production{p}, prete.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	task := ops5.NewWME("task", "id", 7)
	task.TimeTag = 1
	lock := ops5.NewWME("lock", "task", 7)
	lock.TimeTag = 2
	m.Apply([]ops5.Change{
		{Kind: ops5.Insert, WME: task},
		{Kind: ops5.Insert, WME: lock},
	})
	found := false
	for _, e := range m.NodeProfile() {
		if strings.HasPrefix(e.Label, "not#") {
			found = true
		}
	}
	if !found {
		t.Errorf("no not# node in profile: %+v", m.NodeProfile())
	}
}
