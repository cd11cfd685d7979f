package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Analysis summarises a trace's structure: the statistics the paper's
// §4 and §6 discussions turn on (activations per change, dependency
// depth, cost distribution, batch widths).
type Analysis struct {
	// Tasks, Changes and Batches echo the trace totals.
	Tasks, Changes, Batches int
	// TasksPerChange is the mean number of activations per WM change.
	TasksPerChange float64
	// ChangesPerBatch is the mean WM changes per synchronization step.
	ChangesPerBatch float64
	// CostMean and CostMax describe the per-activation instruction
	// distribution (the paper's 50-100 instruction granularity).
	CostMean, CostMax float64
	// DepthMean and DepthMax describe dependency-chain depth per change
	// (1 = the root activation only).
	DepthMean float64
	DepthMax  int
	// CriticalPathShare is the mean fraction of a change's total cost
	// on its longest dependency chain — the §4 variance that bounds
	// speed-up (1.0 = purely serial changes).
	CriticalPathShare float64
	// ByKind counts activations by node kind.
	ByKind map[string]int
}

// Analyze computes trace statistics.
func Analyze(tr *Trace) Analysis {
	a := Analysis{
		Tasks:   len(tr.Tasks),
		Changes: tr.Changes,
		Batches: tr.Batches,
		ByKind:  map[string]int{},
	}
	if len(tr.Tasks) == 0 {
		return a
	}
	var costSum float64
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		costSum += t.Cost
		if t.Cost > a.CostMax {
			a.CostMax = t.Cost
		}
		a.ByKind[t.Kind.String()]++
	}
	a.CostMean = costSum / float64(len(tr.Tasks))
	if tr.Changes > 0 {
		a.TasksPerChange = float64(len(tr.Tasks)) / float64(tr.Changes)
	}
	if tr.Batches > 0 {
		a.ChangesPerBatch = float64(tr.Changes) / float64(tr.Batches)
	}

	// Depth and critical path per (batch, change) group.
	type key struct{ batch, change int }
	groups := map[key][]*Task{}
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		k := key{t.Batch, t.Change}
		groups[k] = append(groups[k], t)
	}
	var depthSum, cpShareSum float64
	nGroups := 0
	for _, tasks := range groups {
		// Longest-path DP over the group's DAG. A task's ID is taken as
		// its activation begins, so a parent's ID is below its
		// children's — though a recorder stores most parents after
		// their children — and in ID order every parent comes first.
		sort.Slice(tasks, func(i, j int) bool { return tasks[i].ID < tasks[j].ID })
		depth := map[int64]int{}
		pathCost := map[int64]float64{}
		var total, maxPath float64
		maxDepth := 1
		for _, t := range tasks {
			// An absent parent (the batch start) reads as depth 0, cost 0.
			d, pc := depth[t.Parent]+1, pathCost[t.Parent]+t.Cost
			depth[t.ID], pathCost[t.ID] = d, pc
			total += t.Cost
			maxDepth = max(maxDepth, d)
			maxPath = max(maxPath, pc)
		}
		depthSum += float64(maxDepth)
		if total > 0 {
			cpShareSum += maxPath / total
		}
		if maxDepth > a.DepthMax {
			a.DepthMax = maxDepth
		}
		nGroups++
	}
	if nGroups > 0 {
		a.DepthMean = depthSum / float64(nGroups)
		a.CriticalPathShare = cpShareSum / float64(nGroups)
	}
	return a
}

// String renders the analysis as an aligned report.
func (a Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tasks:               %d\n", a.Tasks)
	fmt.Fprintf(&b, "wm changes:          %d\n", a.Changes)
	fmt.Fprintf(&b, "batches (cycles):    %d\n", a.Batches)
	fmt.Fprintf(&b, "tasks/change:        %.1f\n", a.TasksPerChange)
	fmt.Fprintf(&b, "changes/batch:       %.2f\n", a.ChangesPerBatch)
	fmt.Fprintf(&b, "cost mean/max:       %.0f / %.0f instructions\n", a.CostMean, a.CostMax)
	fmt.Fprintf(&b, "depth mean/max:      %.1f / %d\n", a.DepthMean, a.DepthMax)
	fmt.Fprintf(&b, "critical-path share: %.2f\n", a.CriticalPathShare)
	kinds := make([]string, 0, len(a.ByKind))
	for k := range a.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-12s %d\n", k+":", a.ByKind[k])
	}
	return b.String()
}
