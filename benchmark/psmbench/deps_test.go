package main

import (
	"os/exec"
	"strings"
	"testing"
)

func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", args, err)
	}
	return strings.Fields(string(out))
}

// psmbench and its load generator see psmd only through HTTP: nothing
// they link may come from repro/internal.
func TestBlackBoxSideImportsNothingInternal(t *testing.T) {
	for _, dep := range goList(t, "-deps", ".", "../loadgen") {
		if strings.HasPrefix(dep, "repro/internal") {
			t.Errorf("the black-box side depends on %s", dep)
		}
	}
}

// The traced run is the one place allowed to import repro/internal,
// and only the packages whose calls it documents.
func TestLayersKeepsToItsDependencySurface(t *testing.T) {
	allowed := map[string]bool{}
	for _, pkg := range []string{"ops5", "sym", "wm", "rete", "prete", "conflict", "engine", "durable", "server"} {
		allowed["repro/internal/"+pkg] = true
	}
	seen := 0
	for _, imp := range goList(t, "-f", `{{join .Imports "\n"}}`, "../layers") {
		if !strings.HasPrefix(imp, "repro/internal") {
			continue
		}
		seen++
		if !allowed[imp] {
			t.Errorf("benchmark/layers imports %s, which is not on its documented surface", imp)
		}
	}
	if seen == 0 {
		t.Error("go list found no repro/internal import in benchmark/layers; the check is not looking at it")
	}
}
