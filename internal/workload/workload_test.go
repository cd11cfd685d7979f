package workload_test

import (
	"strings"
	"testing"

	"repro/internal/conflict"
	"repro/internal/ops5"
	"repro/internal/psm"
	"repro/internal/workload"
)

func TestSystemsCalibration(t *testing.T) {
	// The eight-workload averages at 32 processors must land near the
	// paper's headline numbers: concurrency 15.92, true speed-up 8.25,
	// lost factor 1.93, ~9400 wme-changes/sec (§6). Bands are ±20%.
	var sumC, sumS, sumT, sumL float64
	systems := workload.Systems()
	for _, p := range systems {
		tr := workload.Generate(p)
		r := psm.Simulate(tr, psm.DefaultConfig(32))
		sumC += r.Concurrency
		sumS += r.WMChangesPerSec
		sumT += r.TrueSpeedup
		sumL += r.LostFactor

		// Per-trace sanity: serial cost per change near c1 ≈ 1800.
		if c := tr.CostPerChange(); c < 1200 || c > 3200 {
			t.Errorf("%s: serial cost/change = %.0f, want ~1800", p.Name, c)
		}
	}
	n := float64(len(systems))
	checks := []struct {
		name, metric string
		got, want    float64
	}{
		{"concurrency", "avg", sumC / n, 15.92},
		{"speedup", "avg", sumT / n, 8.25},
		{"lost-factor", "avg", sumL / n, 1.93},
		{"wme-changes/sec", "avg", sumS / n, 9400},
	}
	for _, c := range checks {
		if c.got < c.want*0.8 || c.got > c.want*1.2 {
			t.Errorf("%s %s = %.2f, want %.2f ±20%%", c.name, c.metric, c.got, c.want)
		}
	}
}

func TestSystemsOrdering(t *testing.T) {
	// Figure 6-1's legend ordering: vt lowest, the parallel-firings
	// variants highest.
	conc := map[string]float64{}
	for _, p := range workload.Systems() {
		tr := workload.Generate(p)
		conc[p.Name] = psm.Simulate(tr, psm.DefaultConfig(32)).Concurrency
	}
	if !(conc["vt"] < conc["mud"] && conc["mud"] < conc["r1-soar"]) {
		t.Errorf("expected vt < mud < r1-soar, got %v", conc)
	}
	if conc["r1-soar (parallel firings)"] <= conc["r1-soar"] {
		t.Errorf("parallel firings should raise r1-soar concurrency: %v", conc)
	}
	if conc["ep-soar (parallel firings)"] <= conc["ep-soar"] {
		t.Errorf("parallel firings should raise ep-soar concurrency: %v", conc)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := workload.SystemByName("mud")
	a := workload.Generate(p)
	b := workload.Generate(p)
	if len(a.Tasks) != len(b.Tasks) || a.Changes != b.Changes {
		t.Fatalf("generation not deterministic: %d/%d tasks, %d/%d changes",
			len(a.Tasks), len(b.Tasks), a.Changes, b.Changes)
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
}

func TestGenerateAffectedMean(t *testing.T) {
	// The generator must reproduce the paper's ~30 affected productions
	// per change (we check the per-system configured mean ±25%).
	p, _ := workload.SystemByName("r1-soar")
	tr := workload.Generate(p)
	// Count chains: tasks whose parent is a root task.
	roots := map[int64]bool{}
	chains := 0
	for _, task := range tr.Tasks {
		if task.Parent == 0 {
			roots[task.ID] = true
		} else if roots[task.Parent] {
			chains++
		}
	}
	mean := float64(chains) / float64(tr.Changes)
	if mean < p.AffectedMean*0.75 || mean > p.AffectedMean*1.25 {
		t.Errorf("affected productions per change = %.1f, want ~%.0f", mean, p.AffectedMean)
	}
}

func TestMonkeyBananasRuns(t *testing.T) {
	var out strings.Builder
	rec, e, err := workload.Capture("mab", workload.MonkeyBananas, nil,
		workload.RunConfig{Strategy: conflict.MEA, MaxCycles: 50, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted {
		t.Errorf("monkey-and-bananas did not halt; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "monkey grabs the bananas") {
		t.Errorf("missing grab step; output:\n%s", out.String())
	}
	if e.Fired < 4 {
		t.Errorf("fired %d productions, want >= 4 (walk, push, climb, grab)", e.Fired)
	}
	if len(rec.Trace.Tasks) == 0 || rec.Trace.Changes == 0 {
		t.Error("trace is empty")
	}
}

func TestEightPuzzleRuns(t *testing.T) {
	wmes, err := workload.EightPuzzleWM([9]int{1, 2, 3, 4, 0, 5, 6, 7, 8}, 30)
	if err != nil {
		t.Fatal(err)
	}
	rec, e, err := workload.Capture("ep", workload.EightPuzzle, wmes,
		workload.RunConfig{Strategy: conflict.LEX, MaxCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted {
		t.Error("eight puzzle did not reach its move limit")
	}
	if e.Fired < 30 {
		t.Errorf("fired %d, want >= 30 moves", e.Fired)
	}
	if rec.Trace.Changes < 90 {
		t.Errorf("trace records %d changes, want >= 90 (3 per move)", rec.Trace.Changes)
	}
	// A captured real trace must simulate sensibly.
	r := psm.Simulate(&rec.Trace, psm.DefaultConfig(32))
	if r.TrueSpeedup < 1 {
		t.Errorf("real-trace speedup = %.2f, want >= 1", r.TrueSpeedup)
	}
}

func TestEightPuzzleBadLayout(t *testing.T) {
	if _, err := workload.EightPuzzleWM([9]int{1, 2, 3, 4, 5, 6, 7, 8, 9}, 5); err == nil {
		t.Error("expected error for layout without blank")
	}
}

func TestBlocksWorldRuns(t *testing.T) {
	wmes := workload.BlocksWorldWM(
		[][]string{{"a", "b", "c"}, {"d"}},
		[][2]string{{"a", "d"}},
	)
	var out strings.Builder
	_, e, err := workload.Capture("bw", workload.BlocksWorld, wmes,
		workload.RunConfig{Strategy: conflict.LEX, MaxCycles: 100, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted {
		t.Errorf("blocks world did not finish; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "all goals satisfied") {
		t.Errorf("goals not satisfied; output:\n%s", out.String())
	}
}

func TestMissMannersSeatsEveryone(t *testing.T) {
	p := workload.DefaultMannersParams()
	wmes, err := workload.MannersWM(p)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	rec, eng, err := workload.Capture("manners", workload.MissManners, wmes,
		workload.RunConfig{MaxCycles: 5000, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Halted {
		t.Fatalf("manners did not finish in %d cycles; output: %q", eng.Cycles, out.String())
	}
	if !strings.Contains(out.String(), "all guests seated") {
		t.Errorf("missing completion message: %q", out.String())
	}
	// Verify the seating chain: follow seat2/name2 links from the
	// winning seating path and check alternation + shared hobbies.
	type guestInfo struct {
		sex     string
		hobbies map[string]bool
	}
	guests := map[string]*guestInfo{}
	for _, w := range eng.WM.OfClass("guest") {
		name := w.Get("name").SymName()
		g := guests[name]
		if g == nil {
			g = &guestInfo{sex: w.Get("sex").SymName(), hobbies: map[string]bool{}}
			guests[name] = g
		}
		g.hobbies[w.Get("hobby").SymName()] = true
	}
	// Find the full path: the seating whose seat2 == guest count.
	var full *ops5.WME
	for _, w := range eng.WM.OfClass("seating") {
		if int(w.Get("seat2").Num) == p.Guests && w.Get("path-done").SymName() == "yes" {
			full = w
		}
	}
	if full == nil {
		t.Fatal("no complete seating found")
	}
	// Collect the path entries of the winning seating id.
	id := full.Get("id")
	seatName := map[int]string{}
	for _, w := range eng.WM.OfClass("path") {
		if w.Get("id").Equal(id) {
			seatName[int(w.Get("seat").Num)] = w.Get("name").SymName()
		}
	}
	// The winning seating's own last pair is not in its path table
	// (paths propagate from the parent); add it.
	seatName[int(full.Get("seat2").Num)] = full.Get("name2").SymName()
	if len(seatName) != p.Guests {
		t.Fatalf("path covers %d seats, want %d (%v)", len(seatName), p.Guests, seatName)
	}
	for s := 1; s < p.Guests; s++ {
		a, b := guests[seatName[s]], guests[seatName[s+1]]
		if a == nil || b == nil {
			t.Fatalf("missing guest at seat %d/%d", s, s+1)
		}
		if a.sex == b.sex {
			t.Errorf("seats %d-%d: same sex", s, s+1)
		}
		shared := false
		for h := range a.hobbies {
			if b.hobbies[h] {
				shared = true
			}
		}
		if !shared {
			t.Errorf("seats %d-%d: no shared hobby", s, s+1)
		}
	}
	if rec.Trace.Changes == 0 {
		t.Error("no trace captured")
	}
	t.Logf("manners(%d guests): %d cycles, %d WM changes, %.1f affected prods/change",
		p.Guests, eng.Cycles, rec.Trace.Changes, rec.Counts.PerChange(rec.Counts.Affected))
}

func TestMannersWMErrors(t *testing.T) {
	if _, err := workload.MannersWM(workload.MannersParams{Guests: 7, Hobbies: 3, HobbiesPerGuest: 2}); err == nil {
		t.Error("odd guest count should error")
	}
	if _, err := workload.MannersWM(workload.MannersParams{Guests: 8, Hobbies: 3, HobbiesPerGuest: 5}); err == nil {
		t.Error("too many hobbies per guest should error")
	}
}

func TestLabelingMatchesGoArcConsistency(t *testing.T) {
	// The rule program run to quiescence must compute exactly the same
	// arc-consistency fixpoint as the plain-Go reference, and the
	// hidden ground-truth labeling must survive at every junction.
	for _, seed := range []int64{23, 99, 1234} {
		p := workload.DefaultLabelingParams()
		p.Seed = seed
		scene, err := workload.GenerateLabeling(p)
		if err != nil {
			t.Fatal(err)
		}
		_, eng, err := workload.Capture("labeling", workload.Labeling, scene.WM,
			workload.RunConfig{MaxCycles: 20000})
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]bool{}
		for _, w := range eng.WM.OfClass("cand") {
			got[int(w.Get("id").Num)] = w.Get("alive").SymName() == "yes"
		}
		if len(got) != len(scene.AliveAC) {
			t.Fatalf("seed %d: %d candidates in WM, want %d", seed, len(got), len(scene.AliveAC))
		}
		for id, want := range scene.AliveAC {
			if got[id] != want {
				t.Errorf("seed %d: cand %d alive=%v, Go AC says %v", seed, id, got[id], want)
			}
		}
		for j, id := range scene.GroundTruth {
			if !got[id] {
				t.Errorf("seed %d: junction %d's ground-truth candidate %d was killed", seed, j, id)
			}
		}
	}
}

func TestLabelingErrors(t *testing.T) {
	if _, err := workload.GenerateLabeling(workload.LabelingParams{Junctions: 2}); err == nil {
		t.Error("expected error for tiny scene")
	}
}
