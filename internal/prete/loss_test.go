package prete

// Tests for the loss-factor accounting (loss.go). The load-bearing
// property is the accounting identity: because every worker code path
// stamps its phase clock before handing off — including the spawn gap
// before loop entry — seed + merge + (summed worker phases)/workers
// must reconstruct Apply wall time. The identity is what makes the
// decomposition trustworthy: if phases leaked time, the §6-style shares
// would be fiction.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/obs"
)

// applyScript runs a generated script through a fresh-ish matcher,
// discarding conflict-set output (correctness is cross-checked
// elsewhere; these tests only care about the timing books).
func applyScript(t *testing.T, m *Matcher, script *matchtest.Script) {
	t.Helper()
	m.Sink = matchtest.NewTracker()
	for _, batch := range script.Batches {
		m.Apply(batch)
	}
}

func lossMatcher(t *testing.T, workers int, batches, maxBatch int) (*Matcher, *matchtest.Script) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	params := matchtest.IndexStressGenParams()
	prods := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, batches, maxBatch)
	m, err := NewWithConfig(prods, Config{Workers: workers})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	return m, script
}

// phaseSum totals the aggregated phase seconds of a report.
func phaseSum(l obs.LossReport) float64 {
	var s float64
	for _, p := range l.Phases {
		s += p.Seconds
	}
	return s
}

// TestLossPhasesReconstructWall checks the accounting identity at the
// worker counts the acceptance criterion names: seed + merge + summed
// worker phase time divided by the lane count reconstructs Apply wall
// time within 5%. The unaccounted remainder is one-sided — each lane's
// books stop at its loop exit, slightly before wg.Wait returns — so the
// reconstruction may undershoot but never overshoot materially.
func TestLossPhasesReconstructWall(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		m, script := lossMatcher(t, workers, 60, 12)
		applyScript(t, m, script)
		l := m.Loss()
		if l.ApplySeconds <= 0 {
			t.Fatalf("workers=%d: no apply time recorded", workers)
		}
		rebuilt := l.SeedSeconds + l.MergeSeconds + phaseSum(l)/float64(l.Workers)
		relErr := math.Abs(rebuilt-l.ApplySeconds) / l.ApplySeconds
		if relErr > 0.05 {
			t.Errorf("workers=%d: phases reconstruct %.6fs of %.6fs apply wall (%.1f%% off, want <=5%%)",
				workers, rebuilt, l.ApplySeconds, 100*relErr)
		}
	}
}

// TestLossReportAccumulates checks the report is stable across repeated
// Apply: counters only grow, the decomposition shares always partition
// the budget, and the derived ratios stay finite.
func TestLossReportAccumulates(t *testing.T) {
	m, script := lossMatcher(t, 4, 20, 8)
	applyScript(t, m, script)
	first := m.Loss()
	applyScript(t, m, script)
	second := m.Loss()

	if second.Batches != 2*first.Batches {
		t.Errorf("batches: %d then %d, want doubling", first.Batches, second.Batches)
	}
	if second.ApplySeconds <= first.ApplySeconds {
		t.Errorf("apply seconds not monotone: %.6f then %.6f", first.ApplySeconds, second.ApplySeconds)
	}
	for i, p := range second.Phases {
		if p.Seconds < first.Phases[i].Seconds {
			t.Errorf("phase %s shrank: %.6f then %.6f", p.Phase, first.Phases[i].Seconds, p.Seconds)
		}
	}
	for i, b := range second.TaskSizes {
		if b.Count < first.TaskSizes[i].Count {
			t.Errorf("task bucket %d shrank: %d then %d", i, first.TaskSizes[i].Count, b.Count)
		}
	}
	for _, l := range []obs.LossReport{first, second} {
		var shares float64
		for _, c := range l.Decomposition {
			if c.Share < 0 {
				t.Errorf("negative share %q: %g", c.Name, c.Share)
			}
			shares += c.Share
		}
		// "other" is the clamped remainder, so shares partition the
		// budget exactly unless the books overran it (clamp at zero),
		// which the reconstruct test bounds anyway.
		if shares < 0.99 || shares > 1.05 {
			t.Errorf("decomposition shares sum to %g, want ~1", shares)
		}
		for _, v := range []float64{l.TrueSpeedup, l.NominalConcurrency, l.LossFactor} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("derived ratio not finite-positive: speedup=%g nominal=%g loss=%g",
					l.TrueSpeedup, l.NominalConcurrency, l.LossFactor)
			}
		}
	}
}

// TestPhaseStampZeroAlloc pins the hot-path cost: stamping a phase
// boundary must not allocate — it runs on every activation.
func TestPhaseStampZeroAlloc(t *testing.T) {
	var c phaseClock
	c.last = nanotime()
	if n := testing.AllocsPerRun(1000, func() {
		c.stamp(phaseMatch)
		c.stamp(phasePark)
	}); n != 0 {
		t.Fatalf("phaseClock.stamp allocates %v per run, want 0", n)
	}
}

// TestTaskBucketBounds pins the histogram edges: each configured bound
// maps to its own bucket and anything above the last bound lands in the
// open top bucket.
func TestTaskBucketBounds(t *testing.T) {
	for i, ub := range obs.TaskBucketNanos {
		if got := taskBucket(ub); got != i {
			t.Errorf("taskBucket(%d) = %d, want %d", ub, got, i)
		}
		if got := taskBucket(ub + 1); got != i+1 {
			t.Errorf("taskBucket(%d) = %d, want %d", ub+1, got, i+1)
		}
	}
	if got := taskBucket(1 << 40); got != numTaskBuckets-1 {
		t.Errorf("huge task bucket = %d, want %d", got, numTaskBuckets-1)
	}
}
