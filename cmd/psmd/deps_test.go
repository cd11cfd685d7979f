package main

import (
	"os/exec"
	"strings"
	"testing"
)

// The service links the served matchers (parallel Rete, whose one-lane
// case is rete, and naive), the engine and the serving layers — not the
// paper-reproduction packages (simulator, architecture models, Soar,
// experiments with their ASCII tables and charts, the §3.2 baseline
// matchers TREAT and full-state), the workload generators or test
// helpers.
func TestServicePathImportsNoReproductionPackage(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	banned := map[string]bool{}
	for _, pkg := range []string{"psm", "archcmp", "model", "partition", "soar", "experiments", "workload", "trace", "matchtest", "treat", "fullstate"} {
		banned["repro/internal/"+pkg] = true
	}
	sawServer := false
	for _, dep := range strings.Fields(string(out)) {
		if banned[dep] {
			t.Errorf("cmd/psmd depends on %s", dep)
		}
		sawServer = sawServer || dep == "repro/internal/server"
	}
	if !sawServer {
		t.Error("go list did not report repro/internal/server; the check is not looking at psmd")
	}
}
