package obs

// The matcher reports: what a matcher says about its own work, in the
// shape the /v1 API returns it. Each type is declared once, here, with
// its JSON tags; the matchers (internal/rete, prete, treat) fill them,
// internal/engine's capability interfaces name them, and
// internal/server puts them in reply bodies unchanged.

// MatchStats is a matcher-neutral summary of match work performed.
type MatchStats struct {
	// Changes is the number of WM changes processed.
	Changes int64 `json:"changes"`
	// Comparisons counts element-versus-pattern or token-versus-WME
	// tests, whatever the matcher's unit of match work is.
	Comparisons int64 `json:"comparisons"`
	// ConflictInserts and ConflictRemoves count conflict-set deltas.
	ConflictInserts int64 `json:"conflict_inserts"`
	ConflictRemoves int64 `json:"conflict_removes"`
	// Tasks counts the activations executed, populated only by matchers
	// with an activation scheduler (the parallel Rete); zero for serial
	// matchers.
	Tasks int64 `json:"tasks,omitempty"`
	// Wakeups counts batches that borrowed at least one helper from the
	// process's lane pool; InlineBatches counts batches the caller ran
	// alone. Both zero for serial matchers.
	Wakeups       int64 `json:"wakeups,omitempty"`
	InlineBatches int64 `json:"inline_batches,omitempty"`
	// Workers breaks the scheduler counters down per worker lane; nil
	// for matchers without a scheduler.
	Workers []WorkerStat `json:"workers,omitempty"`
}

// WorkerStat is one scheduler lane's counters: the activations it
// executed. Skew across lanes shows the load imbalance of the paper's
// §6 decomposition.
type WorkerStat struct {
	Executed int64 `json:"executed"`
}

// IndexReport summarises a matcher's equality-join hash indexes.
type IndexReport struct {
	// IndexedNodes and FallbackNodes partition the matcher's join
	// points (two-input nodes; for TREAT, condition elements) by
	// whether they probe a hash bucket or scan linearly.
	IndexedNodes  int `json:"indexed_nodes"`
	FallbackNodes int `json:"fallback_nodes"`
	// Buckets is the number of live hash buckets; MaxBucket the
	// largest bucket's population (the worst-case probe scan).
	Buckets   int `json:"buckets"`
	MaxBucket int `json:"max_bucket"`
}

// NodeProfileEntry is one match-network node's accumulated work, for
// live hot-node profiling (the serving analogue of internal/trace's
// offline per-activation traces). Counters are cumulative since the
// matcher was built.
type NodeProfileEntry struct {
	// NodeID identifies the node within the matcher's network.
	NodeID int `json:"node_id"`
	// Label describes the node (kind, join tests) for humans.
	Label string `json:"label"`
	// SharedBy is the number of productions sharing the node — the
	// sharing that production-level parallelism loses (§4).
	SharedBy int `json:"shared_by,omitempty"`
	// Productions names the productions reading the node (deduplicated,
	// possibly truncated for very shared nodes).
	Productions []string `json:"productions,omitempty"`
	// Activations counts node activations; TokensTested the
	// opposite-memory entries examined; PairsEmitted the tokens sent
	// downstream; IndexedProbes the activations answered from a hash
	// bucket rather than a linear scan.
	Activations   int64 `json:"activations"`
	TokensTested  int64 `json:"tokens_tested"`
	PairsEmitted  int64 `json:"pairs_emitted"`
	IndexedProbes int64 `json:"indexed_probes"`
	// Cost is the accumulated instruction cost under the paper's cost
	// model (cost.Model.NodeCost) and CostShare its fraction of the
	// profile's total. The matchers leave both zero; whoever ranks the
	// profile prices it.
	Cost      float64 `json:"cost"`
	CostShare float64 `json:"cost_share"`
}

// LossReport is a matcher's cumulative loss-factor accounting in the
// shape of the paper's §6 table: where the wall time of parallel match
// work went, and how measured (true) speedup relates to nominal
// concurrency. Only matchers with a phase-instrumented scheduler (the
// parallel Rete) provide one. All numbers accumulate since the matcher
// was built.
type LossReport struct {
	// Workers is the scheduler lane count; Batches the Apply calls.
	Workers int `json:"workers"`
	Batches int `json:"batches"`

	// ApplySeconds is total wall time inside Apply; SeedSeconds the
	// serial alpha-dispatch prefix, ActiveSeconds the parallel worker
	// window, MergeSeconds the serial conflict-set merge barrier.
	// Seed + Active + Merge ~= Apply.
	ApplySeconds  float64 `json:"apply_seconds"`
	SeedSeconds   float64 `json:"seed_seconds"`
	ActiveSeconds float64 `json:"active_seconds"`
	MergeSeconds  float64 `json:"merge_seconds"`

	// Phases aggregates worker phase time over all lanes; PerWorker
	// breaks it down by lane. Summed phases ~= Workers' time inside
	// the active window.
	Phases    []PhaseSeconds `json:"phases"`
	PerWorker []WorkerLoss   `json:"per_worker,omitempty"`

	// TaskSizes is the task execution-time histogram (granularity below
	// profitable task size shows up in the lowest buckets).
	TaskSizes []TaskBucket `json:"task_sizes,omitempty"`

	// SerialEstimateSeconds estimates one-processor time for the same
	// work: seed + merge + summed useful match time. TrueSpeedup is
	// that estimate over Apply wall time. It is self-relative — this
	// matcher's own match time against its own wall time — so it says
	// how well the lanes were used, not whether the matcher beats
	// serial Rete: the paper's true speed-up, against the best
	// uniprocessor matcher, is BenchmarkPreteApply's true-speedup and
	// psmbench's prete.true_speedup, which time the serial matcher on the
	// same script. NominalConcurrency is mean busy workers during the
	// active window (the paper's nominal speedup); LossFactor is
	// nominal over true — the paper measures 1.93 at 32 processors.
	SerialEstimateSeconds float64 `json:"serial_estimate_seconds"`
	TrueSpeedup           float64 `json:"true_speedup"`
	NominalConcurrency    float64 `json:"nominal_concurrency"`
	LossFactor            float64 `json:"loss_factor"`

	// Decomposition partitions the total processor budget
	// (Workers x ApplySeconds): useful_match, memory_contention
	// (lock wait), idle (lanes waiting at the batch barrier, including
	// lanes a bypassed batch left unused), spawn (pool wake latency),
	// serial_seed_merge (all lanes during the serial regions) and other
	// (what no phase covers). Shares sum to 1.
	Decomposition []LossComponent `json:"decomposition"`
}

// PhaseSeconds is one named scheduler phase's accumulated wall time.
type PhaseSeconds struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// WorkerLoss is one scheduler lane's phase breakdown.
type WorkerLoss struct {
	Worker int            `json:"worker"`
	Tasks  int64          `json:"tasks"`
	Phases []PhaseSeconds `json:"phases"`
}

// TaskBucket is one bar of the task-size histogram: tasks that executed
// in at most UpToNanos (0 marks the open top bucket).
type TaskBucket struct {
	UpToNanos int64 `json:"up_to_nanos"`
	Count     int64 `json:"count"`
}

// LossComponent is one term of the loss decomposition: Seconds of the
// total processor budget (Workers x ApplySeconds) and its Share of it.
type LossComponent struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}
