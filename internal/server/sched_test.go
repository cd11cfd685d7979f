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
// distribution is lopsided and stealing must kick in.
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
// the /metrics exposition (psmd_steals_total, psmd_sched_park_total)
// and the per-session profile (tasks, steals, per-worker lanes).
func TestSchedulerMetricsSurfaceSteals(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})

	c.must("POST", "/sessions", server.CreateSpec{
		ID: "skew", Program: skewedSrc, Matcher: "parallel-rete", Workers: 8,
	}, nil, http.StatusCreated)

	// The goal comes last: by the time a lane claims it the seed list is
	// drained, so the token-per-block fan-out behind it (each token with a
	// scan of every block to do) is shed onto that lane's deque, and the
	// lanes running out of block changes must steal it.
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

	if v := metricValue(text, "psmd_steals_total"); v <= 0 {
		t.Errorf("psmd_steals_total = %v, want > 0 under skewed parallel workload", v)
	}
	if v := metricValue(text, "psmd_sched_park_total"); v < 0 {
		t.Errorf("psmd_sched_park_total missing from /metrics:\n%s", text)
	}

	var prof server.ProfileResult
	c.must("GET", "/sessions/skew/profile", nil, &prof, http.StatusOK)
	if prof.MatchStats == nil {
		t.Fatal("profile has no match_stats")
	}
	if prof.MatchStats.Tasks == 0 {
		t.Error("profile match_stats.tasks = 0, want > 0")
	}
	if prof.MatchStats.Steals <= 0 {
		t.Errorf("profile match_stats.steals = %d, want > 0", prof.MatchStats.Steals)
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

// TestNoStealConfigDisablesStealing pins the server-level kill switch:
// with Config.NoSteal every session's scheduler runs without stealing,
// so the steal counter stays flat while work still completes.
func TestNoStealConfigDisablesStealing(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1, NoSteal: true, DefaultWorkers: 8})

	c.must("POST", "/sessions", server.CreateSpec{
		ID: "nosteal", Program: skewedSrc, Matcher: "parallel-rete",
	}, nil, http.StatusCreated)

	changes := []server.ChangeSpec{
		{Op: server.OpAssert, Class: "goal", Attrs: attrs("type", "pick", "color", "red")},
	}
	for i := 0; i < 16; i++ {
		changes = append(changes, server.ChangeSpec{
			Op: server.OpAssert, Class: "block",
			Attrs: attrs("id", float64(i), "color", "red"),
		})
	}
	var ch server.ApplyResult
	c.must("POST", "/sessions/nosteal/changes", server.ChangesRequest{Changes: changes}, &ch, http.StatusOK)
	if want := 16 * 16; ch.ConflictSize != want {
		t.Fatalf("conflict size = %d, want %d", ch.ConflictSize, want)
	}

	resp, err := http.Get(c.raw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v := metricValue(string(raw), "psmd_steals_total"); v != 0 {
		t.Errorf("psmd_steals_total = %v with stealing disabled, want 0", v)
	}

	var prof server.ProfileResult
	c.must("GET", "/sessions/nosteal/profile", nil, &prof, http.StatusOK)
	if prof.MatchStats == nil || prof.MatchStats.Tasks == 0 {
		t.Fatalf("profile match_stats = %+v, want tasks > 0", prof.MatchStats)
	}
	if got := len(prof.MatchStats.Workers); got != 8 {
		t.Errorf("DefaultWorkers not applied: %d worker lanes, want 8", got)
	}
}
