package repro_test

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prete"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden from this run")

const ledgerGolden = "testdata/ledger.golden"

// ledgerRows formats a matcher's Work as one row per direction: the
// counted work of the activations that direction caused.
func ledgerRows(script string, lanes int, w prete.Work) string {
	var b strings.Builder
	for d, dir := range []string{"insert", "delete"} {
		fmt.Fprintf(&b, "%-9s %5d  %-6s %8d %11d %11d %11d %8d %8d\n", script, lanes, dir, w.Changes[d],
			w.JoinTests[d], w.LeftSteps[d], w.RightSteps[d], w.Built[d], w.Freed[d])
	}
	return b.String()
}

const ledgerHeader = "# script   lanes  dir     changes  join_tests  left_steps right_steps    built    freed\n"

// dispatchLedger replays dispatchScript through a fresh prete matcher
// with the given lane count and returns its ledger rows.
func dispatchLedger(t *testing.T, lanes int) string {
	prods, script := dispatchScript(t, 24)
	m, err := prete.NewWithConfig(prods, prete.Config{Workers: lanes})
	if err != nil {
		t.Fatal(err)
	}
	m.Sink = discard{}
	replay(m.Apply, script)
	return ledgerRows("dispatch", lanes, m.Work())
}

// TestWorkLedger is the matcher's work in the paper's unit, gated
// exactly: join tests, identity-lookup chain steps in left and right
// tables, and tokens built and freed, each split by the direction of the
// activation, for dispatchScript and one Manners solve on one lane (both
// deterministic). Any movement fails it; a change that moves a row
// regenerates testdata/ledger.golden with -update and says why. The
// GOMAXPROCS-lane dispatch rows depend on the schedule, so they are
// logged, not gated.
func TestWorkLedger(t *testing.T) {
	got := ledgerHeader + dispatchLedger(t, 1)
	got += ledgerRows("manners", 1, mannersSystemSolve(t, core.SerialRete).ParallelMatcher().Work())
	if lanes := runtime.GOMAXPROCS(0); lanes > 1 {
		t.Logf("not gated:\n%s%s", ledgerHeader, dispatchLedger(t, lanes))
	}
	t.Logf("gated:\n%s", got)
	if *updateLedger {
		if err := os.WriteFile(ledgerGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got {
		t.Errorf("the work ledger moved; if that is intended, rerun with -update and say why.\nwant:\n%s\ngot:\n%s", want, got)
	}
}
