package server_test

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
)

// skewedSrc concentrates match work on one join — a goal against every
// same-colored (block, block) pair — so the parallel matcher's work
// distribution is lopsided.
const skewedSrc = `
(p hot-pair
    (goal ^type pick ^color <c>)
    (block ^id <i> ^color <c>)
    (block ^id <j> ^color <c>)
  -->
    (make out ^r 1))

(p cold
    (marker ^id <m>)
  -->
    (make out ^r 2))
`

// metricValue extracts the numeric value of a psmd_* gauge/counter line
// from text exposition, or -1 when absent.
func metricValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// TestSchedulerMetricsSurfaceSteals drives a skewed workload through a
// parallel-rete session and asserts the scheduler counters reach both
// the /metrics exposition (psmd_sched_wakeups_total) and the
// per-session profile (tasks, wakeups, per-worker lanes).
func TestSchedulerMetricsSurfaceSteals(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})

	c.must("POST", "/sessions", server.CreateSpec{
		ID: "skew", Program: skewedSrc, Matcher: "parallel-rete", Workers: 8,
	}, nil, http.StatusCreated)

	// The goal comes last: the lane that claims it runs the
	// token-per-block fan-out behind it (each token with a scan of every
	// block to do) by itself.
	const blocks = 256
	var changes []server.ChangeSpec
	for i := 0; i < blocks; i++ {
		changes = append(changes, server.ChangeSpec{
			Op: server.OpAssert, Class: "block",
			Attrs: attrs("id", float64(i), "color", "red"),
		})
	}
	changes = append(changes, server.ChangeSpec{
		Op: server.OpAssert, Class: "goal", Attrs: attrs("type", "pick", "color", "red"),
	})
	var ch server.ApplyResult
	c.must("POST", "/sessions/skew/changes", server.ChangesRequest{Changes: changes}, &ch, http.StatusOK)
	if ch.ConflictSize != blocks*blocks {
		t.Fatalf("conflict size = %d, want %d", ch.ConflictSize, blocks*blocks)
	}

	resp, err := http.Get(c.raw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)

	var prof server.ProfileResult
	c.must("GET", "/sessions/skew/profile", nil, &prof, http.StatusOK)
	if prof.MatchStats == nil {
		t.Fatal("profile has no match_stats")
	}
	if prof.MatchStats.Tasks == 0 {
		t.Error("profile match_stats.tasks = 0, want > 0")
	}
	if prof.MatchStats.Wakeups+prof.MatchStats.InlineBatches == 0 {
		t.Error("profile counts no batch as either borrowing a lane or run inline")
	}
	// The one session's matcher is the only source of the series.
	if v := metricValue(text, "psmd_sched_wakeups_total"); v != float64(prof.MatchStats.Wakeups) {
		t.Errorf("psmd_sched_wakeups_total = %v, want the profile's wakeups %d", v, prof.MatchStats.Wakeups)
	}
	if len(prof.MatchStats.Workers) != 8 {
		t.Fatalf("profile reports %d worker lanes, want 8", len(prof.MatchStats.Workers))
	}
	var executed int64
	for _, w := range prof.MatchStats.Workers {
		executed += w.Executed
	}
	if executed != prof.MatchStats.Tasks {
		t.Errorf("worker lanes execute %d tasks, match_stats.tasks = %d", executed, prof.MatchStats.Tasks)
	}
}

// TestDefaultWorkersSetsLaneCount pins Config.DefaultWorkers: a
// parallel-rete session that names no worker count gets that many lanes.
func TestDefaultWorkersSetsLaneCount(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1, DefaultWorkers: 4})

	c.must("POST", "/sessions", server.CreateSpec{
		ID: "lanes", Program: skewedSrc, Matcher: "parallel-rete",
	}, nil, http.StatusCreated)

	var prof server.ProfileResult
	c.must("GET", "/sessions/lanes/profile", nil, &prof, http.StatusOK)
	if prof.MatchStats == nil {
		t.Fatal("profile has no match_stats")
	}
	// TestMain makes GOMAXPROCS, the lane count without DefaultWorkers,
	// at least 8, so 4 lanes can only come from DefaultWorkers.
	if got := len(prof.MatchStats.Workers); got != 4 {
		t.Errorf("DefaultWorkers not applied: %d worker lanes, want 4", got)
	}
}
