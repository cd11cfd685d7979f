package experiments_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runExp executes one experiment with a short cycle count and returns
// its output.
func runExp(t *testing.T, id string, cycles int) string {
	t.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, cycles); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

var update = flag.Bool("update", false, "rewrite testdata/<id>.golden from the current experiments")

// TestAllExperimentsRun runs every experiment at 30 cycles and compares
// its output byte for byte with testdata/<id>.golden. E8 times real
// matchers against the wall clock, so only its running is checked.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out := runExp(t, e.ID, 30)
			if e.ID == "e8" {
				return
			}
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if out != string(want) {
				t.Errorf("output differs from %s (regenerate with -update):\n%s", path, out)
			}
		})
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := experiments.ByID("e99"); ok {
		t.Error("e99 should not exist")
	}
}

func TestE1BreakEven(t *testing.T) {
	out := runExp(t, "e1", 30)
	if !strings.Contains(out, "= 0.61 (paper: 0.61)") {
		t.Errorf("break-even ratio missing:\n%s", out)
	}
	if !strings.Contains(out, "non-state-saving wins") || !strings.Contains(out, "state-saving wins") {
		t.Errorf("verdict columns missing:\n%s", out)
	}
}

// lastTableValue extracts column col (0-based, whitespace-split) of the
// row starting with prefix.
func lastTableValue(t *testing.T, out, prefix string, col int) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, prefix))
		fields := strings.Fields(rest)
		if col >= len(fields) {
			t.Fatalf("row %q has %d fields, want col %d", line, len(fields), col)
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(fields[col], "x"), 64)
		if err != nil {
			t.Fatalf("row %q col %d: %v", line, col, err)
		}
		return v
	}
	t.Fatalf("no row with prefix %q in:\n%s", prefix, out)
	return 0
}

func TestE2ProductionParallelismCapped(t *testing.T) {
	out := runExp(t, "e2", 60)
	prodAvg := lastTableValue(t, out, "AVERAGE", 0)
	nodeAvg := lastTableValue(t, out, "AVERAGE", 1)
	if prodAvg < 2 || prodAvg > 7 {
		t.Errorf("production-level average = %.2f, want ~4-5 (paper ~5)", prodAvg)
	}
	if nodeAvg < prodAvg*2 {
		t.Errorf("node-level (%.2f) should be at least 2x production-level (%.2f)", nodeAvg, prodAvg)
	}
}

func TestE5HeadlineAverages(t *testing.T) {
	out := runExp(t, "e5", 60)
	conc := lastTableValue(t, out, "AVERAGE", 0)
	speedup := lastTableValue(t, out, "AVERAGE", 1)
	lost := lastTableValue(t, out, "AVERAGE", 2)
	if conc < 12 || conc > 20 {
		t.Errorf("avg concurrency = %.2f, want near 15.92", conc)
	}
	if speedup < 6.5 || speedup > 11 {
		t.Errorf("avg speed-up = %.2f, want near 8.25", speedup)
	}
	if lost < 1.6 || lost > 2.3 {
		t.Errorf("lost factor = %.2f, want near 1.93", lost)
	}
	if !strings.Contains(out, "PAPER") {
		t.Error("PAPER reference row missing")
	}
}

func TestE6RankingInOutput(t *testing.T) {
	out := runExp(t, "e6", 30)
	// Extract the model column ordering by machine.
	order := []string{"PSM (this paper)", "Oflazer's machine", "NON-VON", "DADO (TREAT)", "DADO (parallel Rete)"}
	speeds := map[string]float64{}
	re := regexp.MustCompile(`(\d+(?:\.\d+)?)\s*$`)
	for _, line := range strings.Split(out, "\n") {
		for _, m := range order {
			if strings.HasPrefix(line, m) {
				if g := re.FindStringSubmatch(strings.TrimSpace(line)); g != nil {
					speeds[m], _ = strconv.ParseFloat(g[1], 64)
				}
			}
		}
	}
	for i := 1; i < len(order); i++ {
		if speeds[order[i-1]] <= speeds[order[i]] {
			t.Errorf("ranking violated: %s (%.0f) <= %s (%.0f)\n%s",
				order[i-1], speeds[order[i-1]], order[i], speeds[order[i]], out)
		}
	}
}

func TestE7HardwareWins(t *testing.T) {
	out := runExp(t, "e7", 40)
	// Every workload row's hw/sw ratio (last column) must exceed 1.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		ratio, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		if strings.HasPrefix(line, "vt") || strings.HasPrefix(line, "mud") || strings.HasPrefix(line, "r1-soar ") {
			if ratio <= 1 {
				t.Errorf("hw/sw ratio %.2f <= 1 in row %q", ratio, line)
			}
		}
	}
}

func TestE11HierarchyBeatsFlatAtScale(t *testing.T) {
	out := runExp(t, "e11", 30)
	flat := lastTableValue(t, out, "512", 0)
	hier := lastTableValue(t, out, "512", 3)
	if hier <= flat {
		t.Errorf("at 512 processors, hierarchy (%.0f) should beat flat (%.0f)\n%s", hier, flat, out)
	}
}

func TestE13SpectrumOrder(t *testing.T) {
	out := runExp(t, "e13", 30)
	treat := lastTableValue(t, out, "TREAT", 0)
	rete := lastTableValue(t, out, "Rete", 0)
	full := lastTableValue(t, out, "full state (Oflazer)", 0)
	if !(treat < rete && rete < full) {
		t.Errorf("state spectrum violated: TREAT %.0f, Rete %.0f, full %.0f", treat, rete, full)
	}
}

func TestE14ParallelFiringsHelp(t *testing.T) {
	out := runExp(t, "e14", 30)
	if !strings.Contains(out, "solved=true") {
		t.Fatalf("water jug did not solve:\n%s", out)
	}
	par := lastTableValue(t, out, "parallel firings (elaboration waves)", 1)
	seq := lastTableValue(t, out, "serialized (1 change per step)", 1)
	if par <= seq {
		t.Errorf("parallel firings speed-up (%.2f) should exceed serialized (%.2f)", par, seq)
	}
}

func TestE15DynamicBeatsStatic(t *testing.T) {
	out := runExp(t, "e15", 30)
	for _, wl := range []string{"vt", "mud"} {
		ratio := lastTableValue(t, out, wl, 3)
		if ratio <= 1.5 {
			t.Errorf("%s: dynamic/static = %.2f, want clearly > 1.5", wl, ratio)
		}
	}
}

func TestE16RelaxationsOrdered(t *testing.T) {
	out := runExp(t, "e16", 40)
	full := lastTableValue(t, out, "AVERAGE", 0)
	excl := lastTableValue(t, out, "AVERAGE", 1)
	serial := lastTableValue(t, out, "AVERAGE", 2)
	neither := lastTableValue(t, out, "AVERAGE", 3)
	if !(full > excl && excl > serial && serial > neither) {
		t.Errorf("relaxation ordering violated: %v > %v > %v > %v",
			full, excl, serial, neither)
	}
}
