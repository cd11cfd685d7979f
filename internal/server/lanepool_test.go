package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
)

// skewedChanges builds the goal+blocks batch whose ~2n+1 seeded
// activations exceed the serial-bypass threshold, so the session's
// matcher offers its lanes to the lane pool.
func skewedChanges(blocks int) server.ChangesRequest {
	changes := []server.ChangeSpec{
		{Op: server.OpAssert, Class: "goal", Attrs: attrs("type", "pick", "color", "red")},
	}
	for i := 0; i < blocks; i++ {
		changes = append(changes, server.ChangeSpec{
			Op: server.OpAssert, Class: "block",
			Attrs: attrs("id", float64(i), "color", "red"),
		})
	}
	return server.ChangesRequest{Changes: changes}
}

// scrapeMetric fetches /metrics and extracts one unlabelled series.
// It uses c.http, whose one keep-alive connection every request of the
// client shares, so successive scrapes see the same connection
// goroutines.
func scrapeMetric(t *testing.T, c *client, name string) float64 {
	t.Helper()
	resp, err := c.http.Get(c.raw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return metricValue(string(raw), name)
}

// settledGoroutines scrapes psmd_goroutines until two scrapes 10ms apart
// agree, so goroutines of earlier tests that are still exiting are not
// counted as this test's.
func settledGoroutines(t *testing.T, c *client) float64 {
	t.Helper()
	last := scrapeMetric(t, c, "psmd_goroutines")
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := scrapeMetric(t, c, "psmd_goroutines")
		if n == last {
			return n
		}
		last = n
	}
	return last
}

// TestSessionsShareOneLanePool pins that parallel-rete sessions own no
// goroutines: sixteen of them, four lanes each, all past the bypass
// threshold, raise psmd_goroutines by at most the process's one lane
// pool (GOMAXPROCS−1 helpers) over the empty server.
func TestSessionsShareOneLanePool(t *testing.T) {
	const sessions = 16
	_, c := newTestServer(t, server.Config{Shards: 1, DataDir: t.TempDir(), Fsync: durable.FsyncNever})
	helpers := float64(runtime.GOMAXPROCS(0) - 1)

	empty := settledGoroutines(t, c)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("pool-%02d", i)
		c.must("POST", "/sessions", server.CreateSpec{
			ID: id, Program: skewedSrc, Matcher: "parallel-rete", Workers: 4,
		}, nil, http.StatusCreated)
		c.must("POST", "/sessions/"+id+"/changes", skewedChanges(96), nil, http.StatusOK)
	}
	if v := scrapeMetric(t, c, "psmd_sched_wakeups_total"); v <= 0 {
		t.Fatalf("psmd_sched_wakeups_total = %v after %d over-threshold batches, want > 0", v, sessions)
	}
	if live := settledGoroutines(t, c); live > empty+helpers {
		t.Fatalf("psmd_goroutines = %v with %d parallel-rete sessions, want at most %v (empty server %v + %v pool helpers)",
			live, sessions, empty+helpers, empty, helpers)
	}
}

// removalLeavesNoGoroutines creates one over-threshold parallel-rete
// session named id, takes it out of service with remove, and fails
// unless psmd_goroutines then equals its count while the session was
// live and is within the lane pool's helpers of its count before.
func removalLeavesNoGoroutines(t *testing.T, c *client, id string, remove func()) {
	t.Helper()
	helpers := float64(runtime.GOMAXPROCS(0) - 1)

	base := settledGoroutines(t, c)
	c.must("POST", "/sessions", server.CreateSpec{
		ID: id, Program: skewedSrc, Matcher: "parallel-rete", Workers: 4,
	}, nil, http.StatusCreated)
	c.must("POST", "/sessions/"+id+"/changes", skewedChanges(96), nil, http.StatusOK)
	live := settledGoroutines(t, c)

	remove()
	c.must("GET", "/sessions/"+id, nil, nil, http.StatusNotFound)
	after := settledGoroutines(t, c)
	if after != live {
		t.Fatalf("psmd_goroutines = %v after removing %s, want %v as while it was live", after, id, live)
	}
	if after > base+helpers {
		t.Fatalf("psmd_goroutines = %v after removing %s, want at most %v (%v before it + %v pool helpers)",
			after, id, base+helpers, base, helpers)
	}
}

// TestSessionEvictionStopsResidentWorkers pins the DELETE path: evicting
// a parallel-rete session that has run a batch on the lane pool leaves
// no goroutine of its own behind.
func TestSessionEvictionStopsResidentWorkers(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	removalLeavesNoGoroutines(t, c, "evict", func() {
		c.must("DELETE", "/sessions/evict", nil, nil, http.StatusNoContent)
	})
}

// TestDemoteStopsResidentWorkers pins the cluster-handoff path: Demote
// keeps the durable directory and, like an eviction, leaves no goroutine
// of the session's behind.
func TestDemoteStopsResidentWorkers(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Shards: 1, DataDir: t.TempDir(), Fsync: durable.FsyncNever})
	removalLeavesNoGoroutines(t, c, "demote", func() {
		dir, err := srv.Demote(context.Background(), "demote")
		if err != nil {
			t.Fatalf("demote: %v", err)
		}
		if dir == "" {
			t.Fatal("demote returned no durable directory")
		}
	})
}
