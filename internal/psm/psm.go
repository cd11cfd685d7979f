// Package psm simulates the Production System Machine of §5: a
// bus-based shared-memory multiprocessor with 32-64 high-performance
// processors and a hardware task scheduler, executing node-activation
// traces produced by internal/trace or internal/workload. The hierarchy
// of §5 for 100-1000 processors, clusters of that machine joined by a
// global bus (HierConfig), runs on the same list scheduler: the flat
// machine is its one-cluster case.
//
// The simulator mirrors the paper's own methodology (§6): its inputs are
// (1) a trace of node activations with dependency information, (2) a
// cost model (already folded into the trace's per-task instruction
// counts), and (3) a specification of the parallel computational model —
// processor count and speed, bus latency, scheduler type. Its outputs
// are the achieved concurrency, execution speed and the true speed-up
// over the best serial implementation.
package psm

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/rete"
	"repro/internal/trace"
)

// SchedulerKind selects the task scheduler model.
type SchedulerKind uint8

// The scheduler models of §5.
const (
	// HardwareScheduler dispatches a node activation in one bus cycle
	// (the paper's custom hardware task scheduler sitting on the bus).
	HardwareScheduler SchedulerKind = iota
	// SoftwareScheduler executes ~100 instructions per dispatch on the
	// requesting processor and serialises dispatches through the shared
	// task queue's lock.
	SoftwareScheduler
)

// String names the scheduler kind.
func (k SchedulerKind) String() string {
	if k == SoftwareScheduler {
		return "software"
	}
	return "hardware"
}

// Config specifies the simulated machine.
type Config struct {
	// Processors is the number of processors (the paper studies 1-72).
	Processors int
	// MIPS is each processor's speed in instructions per second
	// (the paper assumes 2 MIPS processors).
	MIPS float64
	// Scheduler selects hardware or software task dispatch.
	Scheduler SchedulerKind
	// BusCycle is the shared-bus transaction time in seconds.
	BusCycle float64
	// SWDispatchInstr is the instruction cost of one software dispatch.
	SWDispatchInstr float64
	// SWQueues is the number of software task queues when Scheduler is
	// SoftwareScheduler (default 1). §5 proposes "multiple software
	// task schedulers" as the alternative to the hardware scheduler;
	// tasks hash to queues by node id, so dispatch serialisation is
	// per-queue instead of global.
	SWQueues int
	// MemRefFraction is the fraction of instructions that reference
	// shared data.
	MemRefFraction float64
	// CacheHitRatio is the fraction of shared references served by the
	// per-processor cache (§5 requires "reasonable cache-hit ratios").
	CacheHitRatio float64
	// TaskOverheadInstr is the per-activation synchronisation overhead
	// (lock acquire/release, queue insertion) of the parallel runtime.
	TaskOverheadInstr float64
	// SharingLossFactor multiplies the cost of constant-test (root)
	// activations: the alpha-network sharing a serial matcher enjoys is
	// partially lost when changes are processed in parallel (§4, §6).
	SharingLossFactor float64
	// NodeExclusive serialises activations of the same network node:
	// the "simple implementation" of §4 in which each node processes
	// only one input token at a time. The paper's proposed design
	// relaxes this (multiple activations of the same node run in
	// parallel), so the default configuration leaves it false; it is
	// retained as an ablation of that design decision.
	NodeExclusive bool
	// ProductionLevel restricts parallelism to production granularity:
	// all activations for one production within a batch run serially
	// (§4's rejected coarse-grain alternative). Tasks must carry Prod.
	ProductionLevel bool
	// NodeAssignment, when non-nil, pins every network node's
	// activations to one processor — the static partitioning a
	// non-shared-memory machine requires (§5; see internal/partition).
	// Tasks whose node is not in the map (e.g. root constant-test
	// activations) run on the processor given by their change's index
	// among its cluster's changes modulo the processor count. Dynamic
	// run-time assignment (the shared-memory advantage) is the nil
	// default.
	NodeAssignment map[int]int
	// MemoryModules, when > 0, models interleaved shared-memory banks:
	// each task's shared references are served by the module its
	// network node's state lives in (NodeID modulo the module count),
	// an FCFS server with ModuleCycle service time per transaction.
	// Zero disables module modelling (bus contention only). The paper
	// lists the number of memory modules among its simulator inputs.
	MemoryModules int
	// ModuleCycle is one memory module's per-transaction service time.
	ModuleCycle float64
}

// DefaultConfig returns the paper's machine: 2 MIPS processors, a
// 100 ns shared bus, hardware scheduling, per-node locks.
func DefaultConfig(processors int) Config {
	return Config{
		Processors:        processors,
		MIPS:              2e6,
		Scheduler:         HardwareScheduler,
		BusCycle:          100e-9,
		SWDispatchInstr:   100,
		MemRefFraction:    0.35,
		CacheHitRatio:     0.90,
		TaskOverheadInstr: 44,
		SharingLossFactor: 1.7,
	}
}

// Result reports one simulation run.
type Result struct {
	// Makespan is the simulated execution time in seconds.
	Makespan float64
	// BusyTime is the total processor occupancy (work + waits).
	BusyTime float64
	// Concurrency is the average number of busy processors
	// (BusyTime / Makespan) — the paper's Figure 6-1 metric.
	Concurrency float64
	// SerialSec is the best serial implementation's time: the trace's
	// un-inflated instruction total on one processor with no overheads.
	SerialSec float64
	// TrueSpeedup is SerialSec / Makespan — the paper's §6 metric
	// (8.25-fold average on 32 processors).
	TrueSpeedup float64
	// LostFactor is Concurrency / TrueSpeedup (the paper's 1.93).
	LostFactor float64
	// WMChangesPerSec is the paper's Figure 6-2 metric.
	WMChangesPerSec float64
	// FiringsPerSec is WM throughput divided by changes per firing.
	FiringsPerSec float64
	// BusWaitSec is the total time spent waiting for the shared bus.
	BusWaitSec float64
	// SchedWaitSec is the total time spent waiting for the dispatcher.
	SchedWaitSec float64
	// SharingLossSec is processor time spent re-running constant tests
	// that the serial matcher would have shared (§6 loss component 1).
	SharingLossSec float64
	// OverheadSec is processor time spent on per-activation scheduling
	// and synchronisation overhead (§6 loss components 2 and 3).
	OverheadSec float64
	// Tasks is the number of activations executed.
	Tasks int
}

// String summarises the result.
func (r Result) String() string {
	return fmt.Sprintf("concurrency=%.2f speedup=%.2f lost=%.2f wme/s=%.0f firings/s=%.0f",
		r.Concurrency, r.TrueSpeedup, r.LostFactor, r.WMChangesPerSec, r.FiringsPerSec)
}

// simTask is the runtime view of a trace task.
type simTask struct {
	t        *trace.Task
	ready    float64
	children []int
	deps     int
}

// readyHeap orders tasks by ready time (earliest first).
type readyHeap []*simTask

func (h readyHeap) Len() int           { return len(h) }
func (h readyHeap) Less(i, j int) bool { return h[i].ready < h[j].ready }
func (h readyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)        { *h = append(*h, x.(*simTask)) }
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Simulate runs the trace on the flat machine: a hierarchy of one
// cluster whose global bus carries no transfers.
func Simulate(tr *trace.Trace, cfg Config) Result {
	return simulate(tr, HierConfig{Clusters: 1, Cluster: cfg})
}

// machine is the simulated machine's state; it persists across batches.
// HierConfig says which parts are per cluster and which machine-wide.
type machine struct {
	cfg HierConfig
	// Per cluster: processors, local bus, software task queues.
	procFree  [][]float64
	busFree   []float64
	schedFree [][]float64
	// Machine-wide: node and production exclusivity, memory modules,
	// the global bus.
	nodeFree      map[int]float64
	prodFree      map[int64]float64
	moduleFree    []float64
	globalBusFree float64
	res           Result
}

// simulate runs the trace on the hierarchical machine; every entry
// point of the package goes through it.
func simulate(tr *trace.Trace, cfg HierConfig) Result {
	cfg.Clusters = max(cfg.Clusters, 1)
	c := &cfg.Cluster
	c.Processors = max(c.Processors, 1)
	if c.MemoryModules > 0 && c.ModuleCycle == 0 {
		c.ModuleCycle = 150e-9
	}
	m := &machine{
		cfg:        cfg,
		procFree:   make([][]float64, cfg.Clusters),
		busFree:    make([]float64, cfg.Clusters),
		schedFree:  make([][]float64, cfg.Clusters),
		nodeFree:   make(map[int]float64),
		prodFree:   make(map[int64]float64),
		moduleFree: make([]float64, max(c.MemoryModules, 0)),
	}
	for cl := range m.procFree {
		m.procFree[cl] = make([]float64, c.Processors)
		m.schedFree[cl] = make([]float64, max(c.SWQueues, 1))
	}
	res := &m.res
	res.Tasks = len(tr.Tasks)
	// Serial baseline: raw instruction total, no overheads.
	res.SerialSec = tr.TotalCost() / c.MIPS

	// Group tasks by batch (they are stored in batch order).
	now := 0.0
	for start := 0; start < len(tr.Tasks); {
		end := start
		for end < len(tr.Tasks) && tr.Tasks[end].Batch == tr.Tasks[start].Batch {
			end++
		}
		now = m.batch(tr.Tasks[start:end], now)
		// Synchronisation barrier between recognize-act cycles.
		for _, procs := range m.procFree {
			for i := range procs {
				procs[i] = math.Max(procs[i], now)
			}
		}
		start = end
	}
	res.Makespan = now
	if res.Makespan > 0 {
		res.Concurrency = res.BusyTime / res.Makespan
		res.TrueSpeedup = res.SerialSec / res.Makespan
		res.WMChangesPerSec = float64(tr.Changes) / res.Makespan
		if tr.Firings > 0 {
			res.FiringsPerSec = float64(tr.Firings) / res.Makespan
		}
	}
	if res.TrueSpeedup > 0 {
		res.LostFactor = res.Concurrency / res.TrueSpeedup
	}
	// Cap concurrency at processor count (guard against floating error).
	res.Concurrency = math.Min(res.Concurrency, float64(cfg.Clusters*c.Processors))
	return *res
}

// serve queues svc seconds of work arriving at time at on an FCFS
// server next free at *free, and returns the wait.
func serve(free *float64, at, svc float64) float64 {
	wait := math.Max(0, *free-at)
	*free = math.Max(*free, at) + svc
	return wait
}

// global serves n transactions on the global bus from time at and
// returns the wait and the service time. The bus is modelled only when
// it carries transfers, so a one-cluster machine never touches it.
func (m *machine) global(at float64, n int) (wait, svc float64) {
	if n == 0 {
		return 0, 0
	}
	svc = float64(n) * m.cfg.GlobalBusCycle
	return serve(&m.globalBusFree, at, svc), svc
}

// batch list-schedules one batch's task DAG and returns its completion
// time. Each change's activation tree runs on one cluster (round-robin
// by change index), so intra-change dependencies stay on its local bus.
func (m *machine) batch(tasks []trace.Task, batchStart float64) float64 {
	cfg, res := &m.cfg.Cluster, &m.res
	byID := make(map[int64]int, len(tasks))
	sims := make([]simTask, len(tasks))
	for i := range tasks {
		sims[i] = simTask{t: &tasks[i], ready: batchStart}
		byID[tasks[i].ID] = i
	}
	distributed := map[int]bool{}
	for i := range tasks {
		if p, ok := byID[tasks[i].Parent]; ok && tasks[i].Parent != tasks[i].ID {
			sims[p].children = append(sims[p].children, i)
			sims[i].deps++
		}
		// A change's first root task pays its distribution to a
		// cluster over the global bus.
		if tasks[i].Parent == 0 && !distributed[tasks[i].Change] {
			distributed[tasks[i].Change] = true
			wait, svc := m.global(batchStart, m.cfg.GlobalTransferPerChange)
			sims[i].ready = batchStart + wait + svc
		}
	}
	h := &readyHeap{}
	for i := range sims {
		if sims[i].deps == 0 {
			heap.Push(h, &sims[i])
		}
	}
	finishMax := batchStart
	for h.Len() > 0 {
		st := heap.Pop(h).(*simTask)
		t := st.t
		cl := t.Change % m.cfg.Clusters
		procFree := m.procFree[cl]

		// The hardware scheduler ensures interfering activations are
		// not assigned to processors simultaneously (§5): an activation
		// whose node (or production group) is still busy is held in the
		// task queue rather than blocking a processor, letting other
		// ready activations run first.
		eReady := st.ready
		if cfg.NodeExclusive && t.NodeID != 0 {
			eReady = math.Max(eReady, m.nodeFree[t.NodeID])
		}
		prodKey := int64(t.Batch)<<32 | int64(t.Prod)
		if cfg.ProductionLevel && t.Prod >= 0 {
			eReady = math.Max(eReady, m.prodFree[prodKey])
		}
		if eReady > st.ready && h.Len() > 0 && (*h)[0].ready < eReady {
			st.ready = eReady
			heap.Push(h, st)
			continue
		}

		// Pick the processor: statically pinned when a partition is in
		// force, otherwise the earliest-free (dynamic run-time
		// assignment, the shared-memory advantage of §5).
		proc := 0
		if cfg.NodeAssignment != nil {
			if p, ok := cfg.NodeAssignment[t.NodeID]; ok {
				proc = p % len(procFree)
			} else {
				proc = t.Change / m.cfg.Clusters % len(procFree)
			}
		} else {
			for i := 1; i < len(procFree); i++ {
				if procFree[i] < procFree[proc] {
					proc = i
				}
			}
		}
		startAt := math.Max(eReady, procFree[proc])

		// Instruction cost with parallel-runtime inflation.
		instr := t.Cost
		if t.Kind == rete.KindRoot {
			instr *= cfg.SharingLossFactor
			res.SharingLossSec += t.Cost * (cfg.SharingLossFactor - 1) / cfg.MIPS
		}
		instr += cfg.TaskOverheadInstr
		res.OverheadSec += cfg.TaskOverheadInstr / cfg.MIPS

		// Scheduler dispatch: the hardware scheduler takes one bus
		// cycle (folded into the task's bus service below); a software
		// scheduler executes ~100 instructions serialised through the
		// cluster's task queue's lock.
		var schedWait, dispatchBus float64
		switch cfg.Scheduler {
		case HardwareScheduler:
			dispatchBus = cfg.BusCycle
		case SoftwareScheduler:
			queues := m.schedFree[cl]
			q := 0
			if len(queues) > 1 {
				// Fibonacci hash so structured node ids spread evenly.
				q = int((uint64(uint32(t.NodeID)) * 2654435761 >> 16) % uint64(len(queues)))
			}
			svc := cfg.SWDispatchInstr / cfg.MIPS
			schedWait = serve(&queues[q], startAt, svc) + svc
			instr += cfg.SWDispatchInstr // the processor also executes it
			res.OverheadSec += cfg.SWDispatchInstr / cfg.MIPS
		}

		cpu := instr / cfg.MIPS
		// Local-bus traffic: the dispatch cycle plus cache misses on
		// shared references, served FCFS by the cluster's bus.
		transactions := instr * cfg.MemRefFraction * (1 - cfg.CacheHitRatio)
		busSvc := dispatchBus + transactions*cfg.BusCycle
		busWait := serve(&m.busFree[cl], startAt, busSvc)

		// Interleaved memory-module contention (optional).
		var modSvc, modWait float64
		if len(m.moduleFree) > 0 {
			mod := t.NodeID % len(m.moduleFree)
			if mod < 0 {
				mod = -mod
			}
			modSvc = transactions * cfg.ModuleCycle
			modWait = serve(&m.moduleFree[mod], startAt, modSvc)
		}

		// Terminal activations centralise conflict-set updates over the
		// global bus.
		var globalWait, globalSvc float64
		if t.Kind == rete.KindTerm {
			globalWait, globalSvc = m.global(startAt, m.cfg.GlobalTransferPerTerminal)
		}

		finish := startAt + schedWait + cpu + busSvc + busWait + modSvc + modWait + globalSvc + globalWait
		procFree[proc] = finish
		if cfg.NodeExclusive && t.NodeID != 0 {
			m.nodeFree[t.NodeID] = finish
		}
		if cfg.ProductionLevel && t.Prod >= 0 {
			m.prodFree[prodKey] = finish
		}
		res.BusyTime += finish - startAt
		res.BusWaitSec += busWait + modWait + globalWait
		res.SchedWaitSec += schedWait
		finishMax = math.Max(finishMax, finish)
		for _, c := range st.children {
			sims[c].deps--
			sims[c].ready = math.Max(sims[c].ready, finish)
			if sims[c].deps == 0 {
				heap.Push(h, &sims[c])
			}
		}
	}
	return finishMax
}

// Sweep simulates the trace across a range of processor counts,
// returning one result per count. Used by the Figure 6-1/6-2 harness.
func Sweep(tr *trace.Trace, base Config, processors []int) []Result {
	out := make([]Result, len(processors))
	for i, p := range processors {
		cfg := base
		cfg.Processors = p
		out[i] = Simulate(tr, cfg)
	}
	return out
}
