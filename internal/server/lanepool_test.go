package server_test

import (
	"bytes"
	"context"
	"encoding/json"
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
// pool (GOMAXPROCS−1 helpers) over the empty server, which owns no
// goroutine of its own (TestNewStartsNoGoroutine).
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

// TestReteSessionIsOneLane pins what a rete session runs: the parallel
// matcher on one lane, whatever workers asks for. A rete session
// created with workers 4 reports one lane on /profile, and on a fixed
// script its /changes, /run, /wm and /conflicts replies are the bytes a
// parallel-rete session with workers 1 answers (neither names its
// matcher). The first batch seeds more activations than the bypass
// threshold, so a session with more lanes would offer them.
func TestReteSessionIsOneLane(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 2})
	for _, s := range []server.CreateSpec{
		{ID: "one-rete", Program: skewedSrc, Matcher: "rete", Workers: 4},
		{ID: "one-prete", Program: skewedSrc, Matcher: "parallel-rete", Workers: 1},
	} {
		c.must("POST", "/sessions", s, nil, http.StatusCreated)
	}
	first := server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "goal", Attrs: attrs("type", "pick", "color", "red")},
		{Op: server.OpAssert, Class: "marker", Attrs: attrs("id", 1.0)},
	}}
	colors := []string{"red", "blue", "green", "white", "black", "grey", "pink", "teal"}
	for i := 0; i < 96; i++ {
		first.Changes = append(first.Changes, server.ChangeSpec{
			Op: server.OpAssert, Class: "block", Attrs: attrs("id", float64(i), "color", colors[i%len(colors)]),
		})
	}
	retract := server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpRetract, Tag: 3}, {Op: server.OpRetract, Tag: 11},
		{Op: server.OpAssert, Class: "block", Attrs: attrs("id", 200.0, "color", "red")},
	}}
	script := []struct {
		method, path string
		body         any
	}{
		{"POST", "/changes", first},
		{"POST", "/run", server.RunRequest{Cycles: 20}},
		{"GET", "/conflicts", nil},
		{"POST", "/changes", retract},
		{"POST", "/run", server.RunRequest{Cycles: 0}},
		{"GET", "/wm", nil},
		{"GET", "/conflicts", nil},
	}
	for _, step := range script {
		var replies [2]string
		for i, id := range []string{"one-rete", "one-prete"} {
			replies[i] = rawReply(t, c, step.method, "/sessions/"+id+step.path, step.body)
		}
		if replies[0] != replies[1] {
			t.Errorf("%s %s: rete answers\n%s\nparallel-rete with one worker answers\n%s",
				step.method, step.path, replies[0], replies[1])
		}
	}

	var prof server.ProfileResult
	c.must("GET", "/sessions/one-rete/profile", nil, &prof, http.StatusOK)
	if prof.Matcher != "rete" || prof.Loss == nil || prof.Loss.Workers != 1 ||
		prof.MatchStats == nil || len(prof.MatchStats.Workers) != 1 {
		t.Errorf("rete profile with workers 4: matcher %q, loss %+v, match stats %+v; want rete on one lane",
			prof.Matcher, prof.Loss, prof.MatchStats)
	}
	if prof.MatchStats != nil && prof.MatchStats.Wakeups != 0 {
		t.Errorf("rete session borrowed helper lanes %d times, want never", prof.MatchStats.Wakeups)
	}
}

// rawReply sends one request and returns its status and body as text.
func rawReply(t *testing.T, c *client, method, path string, body any) string {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s", resp.StatusCode, raw)
}
