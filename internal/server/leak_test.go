package server_test

// Goroutine-lifecycle coverage for the server's ownership of resident
// matcher pools: evicting a session (DELETE) and demoting it for
// cluster handoff must both close the matcher, return the
// psmd_sched_resident_workers gauge contribution, and leave no parked
// worker goroutine behind.

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/server"
)

// skewedChanges builds the goal+blocks batch whose ~2n+1 seeded
// activations exceed the serial-bypass threshold, so the session's
// resident pool actually wakes.
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
func scrapeMetric(t *testing.T, c *client, name string) float64 {
	t.Helper()
	// c.http, not http.Get: the default transport's keep-alive conns
	// would hold server-side goroutines the settle checks can't close.
	resp, err := c.http.Get(c.raw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return metricValue(string(raw), name)
}

// quiesce closes idle HTTP conns and waits for the goroutine count to
// stop shrinking, returning the settled count. Both the client
// transport and the httptest server keep per-connection goroutines
// alive between requests; those are noise the leak assertion must not
// count.
func quiesce(c *client) int {
	c.http.CloseIdleConnections()
	last := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= last {
			return n
		}
		last = n
	}
	return last
}

// waitSettled polls until the quiesced goroutine count is at most want.
func waitSettled(t *testing.T, c *client, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := quiesce(c)
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: have %d, want <= %d", n, want)
		}
	}
}

// TestSessionEvictionStopsResidentWorkers pins the DELETE path: the
// session's pool workers show up on the resident-workers gauge while
// live and are fully reclaimed — gauge and goroutines — on eviction.
func TestSessionEvictionStopsResidentWorkers(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})

	base := quiesce(c)
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "evict", Program: skewedSrc, Matcher: "parallel-rete", Workers: 4,
	}, nil, http.StatusCreated)
	c.must("POST", "/sessions/evict/changes", skewedChanges(96), nil, http.StatusOK)

	if v := scrapeMetric(t, c, "psmd_sched_resident_workers"); v != 4 {
		t.Fatalf("psmd_sched_resident_workers = %v after wake, want 4", v)
	}
	if v := scrapeMetric(t, c, "psmd_sched_wakeups_total"); v <= 0 {
		t.Fatalf("psmd_sched_wakeups_total = %v after over-threshold batch, want > 0", v)
	}
	if n := quiesce(c); n < base+4 {
		t.Fatalf("goroutine count %d after wake, want >= base(%d)+4", n, base)
	}

	c.must("DELETE", "/sessions/evict", nil, nil, http.StatusNoContent)
	if v := scrapeMetric(t, c, "psmd_sched_resident_workers"); v != 0 {
		t.Fatalf("psmd_sched_resident_workers = %v after eviction, want 0", v)
	}
	waitSettled(t, c, base)
}

// TestDemoteStopsResidentWorkers pins the cluster-handoff path: Demote
// keeps the durable directory but must tear down the live matcher like
// an eviction — the failover demotion named in the scheduler rebuild's
// lifecycle contract.
func TestDemoteStopsResidentWorkers(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Shards: 1, DataDir: t.TempDir()})

	base := quiesce(c)
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "demote", Program: skewedSrc, Matcher: "parallel-rete", Workers: 4,
	}, nil, http.StatusCreated)
	c.must("POST", "/sessions/demote/changes", skewedChanges(96), nil, http.StatusOK)

	if v := scrapeMetric(t, c, "psmd_sched_resident_workers"); v != 4 {
		t.Fatalf("psmd_sched_resident_workers = %v after wake, want 4", v)
	}
	if n := quiesce(c); n < base+4 {
		t.Fatalf("goroutine count %d after wake, want >= base(%d)+4", n, base)
	}

	dir, err := srv.Demote(context.Background(), "demote")
	if err != nil {
		t.Fatalf("demote: %v", err)
	}
	if dir == "" {
		t.Fatal("demote returned no durable directory")
	}
	if v := scrapeMetric(t, c, "psmd_sched_resident_workers"); v != 0 {
		t.Fatalf("psmd_sched_resident_workers = %v after demote, want 0", v)
	}
	c.must("GET", "/sessions/demote", nil, nil, http.StatusNotFound)
	waitSettled(t, c, base)
}
