package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/trace"
)

func TestRoundTrip(t *testing.T) {
	tr := &trace.Trace{
		Name:    "rt",
		Batches: 2,
		Changes: 3,
		Firings: 2,
		Tasks: []trace.Task{
			{ID: 1, Parent: 0, Batch: 0, Change: 0, NodeID: 7, Prod: -1, Kind: rete.KindRoot, Cost: 80},
			{ID: 2, Parent: 1, Batch: 0, Change: 0, NodeID: 9, Prod: 3, Kind: rete.KindJoinRight, Cost: 120, SharedBy: 2},
			{ID: 3, Parent: 0, Batch: 1, Change: 0, NodeID: 7, Prod: -1, Kind: rete.KindRoot, Cost: 60},
		},
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", tr, got)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestTotalsAndPerChange(t *testing.T) {
	tr := &trace.Trace{Changes: 4, Tasks: []trace.Task{{Cost: 100}, {Cost: 300}}}
	if tr.TotalCost() != 400 {
		t.Errorf("total = %f", tr.TotalCost())
	}
	if tr.CostPerChange() != 100 {
		t.Errorf("per change = %f", tr.CostPerChange())
	}
	empty := &trace.Trace{}
	if empty.CostPerChange() != 0 {
		t.Error("empty trace per-change should be 0")
	}
}

func TestRecorderCapturesDependencies(t *testing.T) {
	p, err := ops5.ParseProduction(`
(p two
    (a ^v <x>)
    (b ^v <x>)
  -->
    (remove 1))
`)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile([]*ops5.Production{p})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("t", net, cost.Default())

	w1 := ops5.NewWME("a", "v", 1)
	w1.TimeTag = 1
	w2 := ops5.NewWME("b", "v", 1)
	w2.TimeTag = 2
	rec.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w1}})
	rec.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w2}})

	if rec.Trace.Batches != 2 || rec.Trace.Changes != 2 {
		t.Fatalf("batches=%d changes=%d", rec.Trace.Batches, rec.Trace.Changes)
	}
	// Every non-root task's parent must exist within the same batch
	// (ordering within a batch is not significant; the simulator builds
	// the dependency map per batch).
	batchOf := map[int64]int{}
	for _, task := range rec.Trace.Tasks {
		batchOf[task.ID] = task.Batch
	}
	for _, task := range rec.Trace.Tasks {
		if task.Parent != 0 {
			pb, ok := batchOf[task.Parent]
			if !ok {
				t.Errorf("task %d: parent %d not in trace", task.ID, task.Parent)
			} else if pb != task.Batch {
				t.Errorf("task %d: parent in different batch", task.ID)
			}
		}
		if task.Cost <= 0 {
			t.Errorf("task %d has non-positive cost", task.ID)
		}
	}
	// The second change joins against the first: there must be at
	// least one terminal activation in batch 1.
	foundTerm := false
	for _, task := range rec.Trace.Tasks {
		if task.Batch == 1 && task.Kind == rete.KindTerm {
			foundTerm = true
		}
	}
	if !foundTerm {
		t.Error("no terminal activation recorded for the completed match")
	}
}

func TestAnalyze(t *testing.T) {
	tr := &trace.Trace{Batches: 2, Changes: 3}
	// Batch 0, change 0: root(1) -> a(2) -> b(3); root -> c(4).
	tr.Tasks = []trace.Task{
		{ID: 1, Parent: 0, Batch: 0, Change: 0, Kind: rete.KindRoot, Cost: 100},
		{ID: 2, Parent: 1, Batch: 0, Change: 0, Kind: rete.KindJoinRight, Cost: 50},
		{ID: 3, Parent: 2, Batch: 0, Change: 0, Kind: rete.KindJoinLeft, Cost: 50},
		{ID: 4, Parent: 1, Batch: 0, Change: 0, Kind: rete.KindJoinRight, Cost: 30},
		// Batch 1: two single-root changes.
		{ID: 5, Parent: 0, Batch: 1, Change: 0, Kind: rete.KindRoot, Cost: 60},
		{ID: 6, Parent: 0, Batch: 1, Change: 1, Kind: rete.KindRoot, Cost: 40},
	}
	a := trace.Analyze(tr)
	if a.Tasks != 6 || a.Changes != 3 || a.Batches != 2 {
		t.Errorf("totals: %+v", a)
	}
	if a.DepthMax != 3 {
		t.Errorf("depth max = %d, want 3", a.DepthMax)
	}
	// Change 0 critical path: 100+50+50 = 200 of 230 total.
	wantShare := (200.0/230.0 + 1 + 1) / 3
	if diff := a.CriticalPathShare - wantShare; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("critical path share = %f, want %f", a.CriticalPathShare, wantShare)
	}
	if a.ByKind["root"] != 3 || a.ByKind["join-right"] != 2 {
		t.Errorf("kinds: %v", a.ByKind)
	}
	if a.CostMax != 100 {
		t.Errorf("cost max = %f", a.CostMax)
	}
	if s := a.String(); !strings.Contains(s, "critical-path share") {
		t.Errorf("report: %s", s)
	}
	// Empty trace does not panic.
	if e := trace.Analyze(&trace.Trace{}); e.Tasks != 0 {
		t.Errorf("empty analysis: %+v", e)
	}
}

// record compiles src and returns a recorder over its network.
func record(t *testing.T, src string) *trace.Recorder {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewRecorder("t", net, cost.Default())
}

func TestStatsAffectedProductions(t *testing.T) {
	rec := record(t, `
(p a1 (goal ^color red) --> (remove 1))
(p a2 (goal ^color <c>) --> (remove 1))
(p a3 (block ^color red) --> (remove 1))
(p j1 (goal ^color <c>) (block ^color <c>) --> (remove 1))
(p b1 (block) --> (remove 1))
(p n1 (goal ^color red) -(mark) --> (remove 1))
(p m1 (mark) --> (remove 1))
`)
	for i, step := range []struct {
		class, color string
		want         int64
	}{
		// The goal reaches a1, n1, a2 and j1 through their alpha
		// memories; j1's left activation reaches b1, which reads j1's
		// right memory, and n1's not-node left activation reaches m1.
		// a3 reads only red blocks.
		{"goal", "red", 6},
		// a3 through its alpha memory; j1 and b1 read the plain block
		// memory.
		{"block", "red", 3},
		// n1's not-node right activation and m1's alpha memory.
		{"mark", "", 2},
	} {
		w := ops5.NewWME(step.class)
		if step.color != "" {
			w = ops5.NewWME(step.class, "color", step.color)
		}
		w.TimeTag = i + 1
		before := rec.Counts.Affected
		rec.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
		if got := rec.Counts.Affected - before; got != step.want {
			t.Errorf("change %d (%s): %d affected productions, want %d", i, step.class, got, step.want)
		}
	}
	c := rec.Counts
	if c.Changes != 3 || c.PerChange(c.Affected) != 11.0/3 {
		t.Errorf("%d changes, %.2f affected per change; want 3, %.2f", c.Changes, c.PerChange(c.Affected), 11.0/3)
	}
	if c.Activations != int64(len(rec.Trace.Tasks)) || c.PerChange(c.Activations) != float64(len(rec.Trace.Tasks))/3 {
		t.Errorf("%d activations (%.2f per change), trace has %d tasks",
			c.Activations, c.PerChange(c.Activations), len(rec.Trace.Tasks))
	}
}

// TestRecorderLabelsProductions checks Task.Prod: the index of the one
// production a node serves, -1 for roots and shared nodes.
func TestRecorderLabelsProductions(t *testing.T) {
	apply := func(rec *trace.Recorder, classes ...string) {
		for i, class := range classes {
			w := ops5.NewWME(class, "v", 1)
			w.TimeTag = i + 1
			rec.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
		}
	}
	// No node is shared: every activation but a root names its
	// production.
	rec := record(t, `
(p one (a ^v <x>) (b ^v <x>) --> (remove 1))
(p two (c ^v 1) --> (remove 1))
`)
	apply(rec, "a", "b", "c")
	prods := map[int]bool{}
	for _, task := range rec.Trace.Tasks {
		if (task.Kind == rete.KindRoot) != (task.Prod == -1) {
			t.Errorf("task %d (%s): prod %d", task.ID, task.Kind, task.Prod)
		}
		prods[task.Prod] = true
	}
	if len(prods) != 3 || !prods[0] || !prods[1] {
		t.Errorf("prod values %v, want -1, 0 and 1", prods)
	}

	// The a memory and the join on it are shared; b's join and the
	// terminals are not.
	rec = record(t, `
(p one (a ^v <x>) --> (remove 1))
(p two (a ^v <x>) (b ^v <x>) --> (remove 1))
`)
	apply(rec, "a", "b")
	terms := map[int]bool{}
	for _, task := range rec.Trace.Tasks {
		switch {
		case task.Kind == rete.KindTerm:
			terms[task.Prod] = true
		case task.Kind == rete.KindAlpha && task.Change == 0 && task.Batch == 0:
			if task.Prod != -1 {
				t.Errorf("shared alpha memory: prod %d, want -1", task.Prod)
			}
		case task.Kind == rete.KindJoinLeft, task.Batch == 1 && task.Kind == rete.KindJoinRight:
			if task.Prod != 1 {
				t.Errorf("two's b join (%s): prod %d, want 1", task.Kind, task.Prod)
			}
		}
	}
	if len(terms) != 2 || !terms[0] || !terms[1] {
		t.Errorf("terminal prods %v, want 0 and 1", terms)
	}
}

// TestAnalyzeChildrenStoredFirst checks depth on a chain stored the way
// a recorder stores it: each activation after the ones it caused, the
// root last.
func TestAnalyzeChildrenStoredFirst(t *testing.T) {
	tr := &trace.Trace{Batches: 1, Changes: 1, Tasks: []trace.Task{
		{ID: 4, Parent: 3, Kind: rete.KindTerm, Cost: 10},
		{ID: 3, Parent: 2, Kind: rete.KindJoinLeft, Cost: 10},
		{ID: 2, Parent: 1, Kind: rete.KindAlpha, Cost: 10},
		{ID: 1, Kind: rete.KindRoot, Cost: 10},
	}}
	if a := trace.Analyze(tr); a.DepthMax != 4 || a.CriticalPathShare != 1 {
		t.Errorf("depth max %d, critical-path share %.2f; want 4, 1", a.DepthMax, a.CriticalPathShare)
	}
}
