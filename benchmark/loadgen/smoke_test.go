package loadgen

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSmokeAllWorkloads builds the real psmd and runs every workload
// end to end with 0.5 s rounds: every check must pass and every
// end-to-end metric BENCHMARK.json names must come out positive. It is
// the short variant of the benchmark and runs under -short too.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	bin, err := BuildPsmd(filepath.Join("..", ".."), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	contract, err := ReadContract(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		BenchDir: "..", PsmdBin: bin, WorkDir: t.TempDir(), Seed: 1, Nproc: runtime.NumCPU(),
		Rounds: 2, RoundSeconds: 0.5, SetupReps: 1,
	}
	for _, spec := range Workloads {
		res, err := Run(cfg, spec.Name)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", spec.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, def := range contract.EndToEnd {
			if m, ok := res.Metrics[def.Name]; !ok || m.Value <= 0 || m.Unit != def.Unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", spec.Name, def.Name, m, def.Unit)
			}
		}
		if len(res.Metrics) != len(contract.EndToEnd) {
			t.Errorf("%s: %d metrics measured, BENCHMARK.json names %d", spec.Name, len(res.Metrics), len(contract.EndToEnd))
		}
		if spec.Name == "chatter_wal" && res.Info["recover_restart_s"] <= 0 {
			t.Errorf("chatter_wal: no restart after kill -9 was timed")
		}
	}
	KillAll() // nothing may be left running
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke run took %v, want under 15 s", d)
	}
}

// BENCHMARK.json repeats the workload list; the two must agree.
func TestContractNamesTheWorkloads(t *testing.T) {
	contract, err := ReadContract(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the load generator %d", len(contract.Workloads), len(Workloads))
	}
	for i, spec := range Workloads {
		if got := contract.Workloads[i]; got.Name != spec.Name || got.Why != spec.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the load generator %q (%q)", i, got.Name, got.Why, spec.Name, spec.Why)
		}
		if len(spec.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", spec.Name, len(spec.Why))
		}
	}
}
