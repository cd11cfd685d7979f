package psm

import "repro/internal/trace"

// HierConfig specifies the hierarchical multiprocessor of §5: when more
// than 32-64 processors are needed (100-1000), the paper proposes
// clusters of processors, each with its own bus and task scheduler,
// joined by a global bus. The flat machine is the one-cluster case
// whose global bus carries no transfers (Simulate).
//
// Each working-memory change's activation tree runs on one cluster
// (round-robin by change index), so intra-change dependencies stay on
// the cluster's local bus; the initial change distribution and the
// conflict-set updates (terminal activations) cross the global bus.
//
// Every cluster is a copy of Cluster with its own processors, local
// bus and software task queues. Node and production exclusivity and the
// memory modules are machine-wide: a node's state lives in one place
// whichever cluster activates it.
type HierConfig struct {
	// Clusters is the number of processor clusters.
	Clusters int
	// Cluster configures each cluster: its Processors, local bus and
	// scheduler, and the machine-wide settings above.
	Cluster Config
	// GlobalBusCycle is the inter-cluster bus transaction time.
	GlobalBusCycle float64
	// GlobalTransferPerChange is the number of global transactions to
	// distribute one WM change to a cluster.
	GlobalTransferPerChange int
	// GlobalTransferPerTerminal is the number of global transactions
	// per conflict-set update (terminals are centralised for
	// conflict resolution).
	GlobalTransferPerTerminal int
}

// DefaultHierConfig returns a hierarchy of the given shape with the
// paper's per-cluster machine and a global bus twice as slow as the
// cluster buses.
func DefaultHierConfig(clusters, perCluster int) HierConfig {
	return HierConfig{
		Clusters:                  clusters,
		Cluster:                   DefaultConfig(perCluster),
		GlobalBusCycle:            200e-9,
		GlobalTransferPerChange:   4,
		GlobalTransferPerTerminal: 2,
	}
}

// SimulateHierarchical runs the trace on the hierarchical machine.
func SimulateHierarchical(tr *trace.Trace, cfg HierConfig) Result {
	return simulate(tr, cfg)
}
