package psm_test

import (
	"testing"

	"repro/internal/psm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// wideTrace builds a high-parallelism workload (many parallel firings).
func wideTrace() *trace.Trace {
	p, _ := workload.SystemByName("r1-soar")
	p.FiringsPerCycle = 8
	p.Cycles = 40
	p.Name = "r1-soar (8 firings)"
	return workload.Generate(p)
}

func TestHierarchicalMatchesFlatAtOneCluster(t *testing.T) {
	// One cluster with no global traffic is the flat machine.
	tr := wideTrace()
	flat := psm.Simulate(tr, psm.DefaultConfig(32))
	h := psm.DefaultHierConfig(1, 32)
	h.GlobalTransferPerChange = 0
	h.GlobalTransferPerTerminal = 0
	if hier := psm.SimulateHierarchical(tr, h); hier != flat {
		t.Errorf("single-cluster hierarchy differs from flat:\n hier %#v\n flat %#v", hier, flat)
	}
}

func TestHierarchyHonoursClusterSettings(t *testing.T) {
	// Each setting of Cluster must slow a 2x32 hierarchy down, as it
	// slows the flat machine, on a trace where it binds: with is slower
	// than base.
	tr := wideTrace()
	pinned := map[int]int{}
	for _, task := range tr.Tasks {
		pinned[task.NodeID] = 0
	}
	sw := func(queues int) func(*psm.Config) {
		return func(c *psm.Config) {
			c.Scheduler = psm.SoftwareScheduler
			c.SWQueues = queues
		}
	}
	run := func(set func(*psm.Config)) psm.Result {
		h := psm.DefaultHierConfig(2, 32)
		if set != nil {
			set(&h.Cluster)
		}
		return psm.SimulateHierarchical(tr, h)
	}
	cases := []struct {
		name       string
		base, with func(*psm.Config)
	}{
		{"NodeExclusive", nil, func(c *psm.Config) { c.NodeExclusive = true }},
		{"ProductionLevel", nil, func(c *psm.Config) { c.ProductionLevel = true }},
		{"NodeAssignment", nil, func(c *psm.Config) { c.NodeAssignment = pinned }},
		{"MemoryModules", nil, func(c *psm.Config) { c.MemoryModules = 1 }},
		{"SWQueues", sw(4), sw(1)},
	}
	for _, tc := range cases {
		base, with := run(tc.base), run(tc.with)
		if with.Makespan <= base.Makespan*1.01 {
			t.Errorf("%s: makespan %.4fms, want over 1%% above %.4fms",
				tc.name, with.Makespan*1e3, base.Makespan*1e3)
		}
	}
}

func TestHierarchyScalesPastBusSaturation(t *testing.T) {
	// With a high-parallelism workload, a flat 256-processor machine is
	// limited by its single bus; 8 clusters of 32 with local buses must
	// be faster.
	tr := wideTrace()
	flat := psm.Simulate(tr, psm.DefaultConfig(256))
	hier := psm.SimulateHierarchical(tr, psm.DefaultHierConfig(8, 32))
	if hier.WMChangesPerSec <= flat.WMChangesPerSec {
		t.Errorf("hierarchical 8x32 (%.0f wme/s) should beat flat 256 on one bus (%.0f wme/s)",
			hier.WMChangesPerSec, flat.WMChangesPerSec)
	}
}

func TestHierarchyMoreClustersMoreThroughput(t *testing.T) {
	tr := wideTrace()
	h2 := psm.SimulateHierarchical(tr, psm.DefaultHierConfig(2, 32))
	h8 := psm.SimulateHierarchical(tr, psm.DefaultHierConfig(8, 32))
	if h8.WMChangesPerSec <= h2.WMChangesPerSec {
		t.Errorf("8 clusters (%.0f wme/s) should beat 2 clusters (%.0f wme/s)",
			h8.WMChangesPerSec, h2.WMChangesPerSec)
	}
}

func TestHierarchyGlobalBusVisible(t *testing.T) {
	tr := wideTrace()
	cheap := psm.DefaultHierConfig(4, 16)
	expensive := cheap
	expensive.GlobalBusCycle = 5e-6 // pathologically slow global bus
	rc := psm.SimulateHierarchical(tr, cheap)
	re := psm.SimulateHierarchical(tr, expensive)
	if re.Makespan <= rc.Makespan {
		t.Errorf("slow global bus (%.3fms) should hurt vs fast (%.3fms)",
			re.Makespan*1e3, rc.Makespan*1e3)
	}
}
