package prete

// Loss-factor accounting (§6 of the paper). The paper reports a true
// speedup of 8.25 on 32 processors against a nominal concurrency of
// ~15.9 — a measured loss factor of 1.93 — and decomposes the loss into
// lost node sharing, scheduling overhead and memory contention. This
// file is the software instrument for the same decomposition: every
// worker attributes its wall time to a small fixed set of phases with
// cheap monotonic-clock deltas (no allocation, no locks on the hot
// path), the matcher attributes the serial seed and merge regions of
// each Apply, and Loss() folds the accumulated numbers into an
// obs.LossReport with paper-style nominal concurrency, true speedup and
// a loss decomposition.
//
// The stamping discipline: each worker's phaseClock carries `last`, the
// instant through which its time has been accounted. stamp(p) charges
// the interval [last, now] to phase p and advances last. The clock is
// read at seed boundaries, not per activation: batchLoop stamps match
// after a seed's activations (every downstream one included), a stripe
// lock stamps lock_wait only when TryLock fails, a borrowed lane stamps
// spawn on entry and park on exit, and Apply charges every lane's wait
// at the barrier to park. So a worker's phase totals sum exactly to its
// share of the batch's active window — which is how the report can
// promise that phases + seed + merge reconstruct Apply wall time.

import (
	"math"
	"time"

	"repro/internal/obs"
)

// phase is one bucket of worker wall time.
type phase uint8

const (
	// phaseMatch is useful match work: executing a seed's node
	// activations — memory update plus opposite-memory scan — excluding
	// contended lock waits. This is the work a serial matcher would
	// also perform (the claim from the seed list rides along; it is a
	// few nanoseconds).
	phaseMatch phase = iota
	// phaseLockWait is time blocked on a contended memory stripe lock
	// (the paper's memory contention). An uncontended acquisition is a
	// TryLock that succeeds and is not timed apart from match.
	phaseLockWait
	// phasePark is a lane's idle time at the batch barrier: from the
	// moment it finds no seed left to the moment the last lane is
	// through — the load-imbalance component.
	phasePark
	// phaseSpawn is the hand-off of lanes to the lane pool — the
	// software analogue of the paper's processor-allocation overhead:
	// lane 0 charges its offers to idle helpers, and each borrowed lane
	// the gap from the hand-off to its entry into the batch loop.
	phaseSpawn

	numPhases
)

// phaseNames are the wire/metric spellings, indexed by phase.
var phaseNames = [numPhases]string{
	"match", "lock_wait", "park", "spawn",
}

// clockBase anchors nanotime: time.Since on a monotonic base compiles
// to one clock read with no allocation.
var clockBase = time.Now()

// nanotime returns monotonic nanoseconds since package init.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// phaseClock is one worker's phase accumulator. It is owner-only: a
// lane's successive batches, and Apply's end-of-batch close and fold
// into the matcher's totals, are ordered by the hand-off and the batch
// barrier.
type phaseClock struct {
	last int64
	ns   [numPhases]int64
}

// stamp charges the time since the previous stamp to phase p.
func (c *phaseClock) stamp(p phase) {
	now := nanotime()
	c.ns[p] += now - c.last
	c.last = now
}

// Task-size histogram: seeds — a change's right activations with every
// downstream activation they cause — bucketed by execution time. The
// paper's premise is ~50-100 instructions per activation; seeds in the
// lowest buckets are below the grain where handing work to another lane
// pays, so the histogram shows how much of the workload is too fine to
// parallelise profitably. seedGrain and serialBypassThreshold are read
// off it.
var taskBucketNanos = [...]int64{256, 1024, 4096, 16384, 65536, 262144}

// numTaskBuckets adds the open top bucket (> 262144ns).
const numTaskBuckets = len(taskBucketNanos) + 1

// taskBucket maps a task duration to its histogram bucket.
func taskBucket(d int64) int {
	for i, ub := range taskBucketNanos {
		if d <= ub {
			return i
		}
	}
	return numTaskBuckets - 1
}

// secs converts accumulated nanoseconds for the report.
func secs(ns int64) float64 { return float64(ns) / float64(time.Second) }

// Loss folds the accumulated phase clocks and Apply timings into the
// loss report. Safe to call concurrently with Apply; the numbers then
// stand as of the last completed batch.
func (m *Matcher) Loss() obs.LossReport {
	m.mu.Lock()
	applyNs, seedNs, activeNs, mergeNs := m.applyNs, m.seedNs, m.activeNs, m.mergeNs
	batches := m.batches
	lanes := append([]laneBooks(nil), m.lanes...)
	m.mu.Unlock()

	workers := len(lanes)
	r := obs.LossReport{
		Workers:       workers,
		Batches:       batches,
		ApplySeconds:  secs(applyNs),
		SeedSeconds:   secs(seedNs),
		ActiveSeconds: secs(activeNs),
		MergeSeconds:  secs(mergeNs),
	}

	var phaseTot [numPhases]int64
	var bucketTot [numTaskBuckets]int64
	for wi := range lanes {
		w := &lanes[wi]
		wl := obs.WorkerLoss{
			Worker: wi,
			Tasks:  w.executed,
			Phases: make([]obs.PhaseSeconds, numPhases),
		}
		for p := phase(0); p < numPhases; p++ {
			v := w.clock.ns[p]
			phaseTot[p] += v
			wl.Phases[p] = obs.PhaseSeconds{Phase: phaseNames[p], Seconds: secs(v)}
		}
		for b := 0; b < numTaskBuckets; b++ {
			bucketTot[b] += w.taskSizes[b]
		}
		r.PerWorker = append(r.PerWorker, wl)
	}
	r.Phases = make([]obs.PhaseSeconds, numPhases)
	for p := phase(0); p < numPhases; p++ {
		r.Phases[p] = obs.PhaseSeconds{Phase: phaseNames[p], Seconds: secs(phaseTot[p])}
	}
	r.TaskSizes = make([]obs.TaskBucket, numTaskBuckets)
	for b := 0; b < numTaskBuckets; b++ {
		ub := int64(0) // open top bucket
		if b < len(taskBucketNanos) {
			ub = taskBucketNanos[b]
		}
		r.TaskSizes[b] = obs.TaskBucket{UpToNanos: ub, Count: bucketTot[b]}
	}

	matchNs := phaseTot[phaseMatch]
	lockNs := phaseTot[phaseLockWait]
	idleNs := phaseTot[phasePark]
	spawnNs := phaseTot[phaseSpawn]
	busyNs := matchNs + lockNs

	serialNs := seedNs + mergeNs + matchNs
	r.SerialEstimateSeconds = secs(serialNs)
	if applyNs > 0 {
		r.TrueSpeedup = float64(serialNs) / float64(applyNs)
	}
	if activeNs > 0 {
		r.NominalConcurrency = float64(busyNs) / float64(activeNs)
	}
	if r.TrueSpeedup > 0 {
		r.LossFactor = r.NominalConcurrency / r.TrueSpeedup
	}

	budgetNs := int64(workers) * applyNs
	serialRegionNs := int64(workers) * (seedNs + mergeNs)
	otherNs := budgetNs - matchNs - lockNs - idleNs - spawnNs - serialRegionNs
	if otherNs < 0 {
		otherNs = 0
	}
	comps := []obs.LossComponent{
		{Name: "useful_match", Seconds: secs(matchNs)},
		{Name: "memory_contention", Seconds: secs(lockNs)},
		{Name: "idle", Seconds: secs(idleNs)},
		{Name: "spawn", Seconds: secs(spawnNs)},
		{Name: "serial_seed_merge", Seconds: secs(serialRegionNs)},
		{Name: "other", Seconds: secs(otherNs)},
	}
	if budgetNs > 0 {
		for i := range comps {
			comps[i].Share = comps[i].Seconds / secs(budgetNs)
			if math.IsNaN(comps[i].Share) {
				comps[i].Share = 0
			}
		}
	}
	r.Decomposition = comps
	return r
}
