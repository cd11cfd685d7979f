package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// spinSrc never quiesces once a tick is in working memory: every run
// that reaches it stops only at its cycle limit or its deadline.
const spinSrc = `(p spin (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))`

// accountSrc is the fraud pack, a counter that stops at ^limit without
// halting, and spinSrc: one program that /changes, /run with a cycle
// limit, a TTL'd /stream and a deadline-stopped /stream batch all drive.
var accountSrc = workload.FraudRules + `
(p count
    (counter ^n <n> ^limit <l>)
  - (counter ^n <l>)
  -->
    (modify 1 ^n (compute <n> + 1)))
` + spinSrc

// smallFraud is a short TTL'd fraud stream: 96 events over 8 cards,
// 20-tick window.
func smallFraud() []byte {
	return workload.NDJSON(workload.FraudEvents(workload.FraudParams{Cards: 8, Events: 96, Window: 20, Seed: 1}))
}

// tickEvent is one stream event that sets spinSrc spinning.
const tickEvent = `{"class":"tick","attrs":{"n":0},"ts":1}` + "\n"

// shortTimeout serves srv with a 50 ms request deadline, for legs that
// must stop at it.
func shortTimeout(t *testing.T, srv *server.Server) *client {
	ts := httptest.NewServer(srv.HandlerWith(server.HandlerConfig{RequestTimeout: 50 * time.Millisecond}))
	t.Cleanup(ts.Close)
	return newClient(t, ts)
}

// drainStream posts an NDJSON body and returns the status and the
// X-Stream-Events-Applied header.
func drainStream(c *client, id string, body []byte) (int, string) {
	resp := c.postStream(id, body)
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Stream-Events-Applied")
}

// checkCountersMatchEngines asserts that each server-wide engine counter
// equals the sum of the sessions' own engine counters.
func checkCountersMatchEngines(t *testing.T, srv *server.Server, c *client, ids []string) {
	t.Helper()
	var changes, fired, cycles, expired int
	for _, id := range ids {
		var info server.SessionInfo
		c.must("GET", "/sessions/"+id, nil, &info, http.StatusOK)
		changes += info.TotalChanges
		fired += info.Fired
		cycles += info.Cycles
		expired += info.Expired
	}
	var buf bytes.Buffer
	srv.Registry().WriteText(&buf)
	for _, m := range []struct {
		name string
		want int
	}{
		{"psmd_wme_changes_total", changes},
		{"psmd_firings_total", fired},
		{"psmd_cycles_total", cycles},
		{"psmd_expired_wmes_total", expired},
	} {
		if got := metricValue(buf.String(), m.name); got != float64(m.want) {
			t.Errorf("%s = %v, want %d (the sessions' engines)", m.name, got, m.want)
		}
	}
}

// TestDispatchAccountsEveryRoute: the four server-wide engine counters
// count everything the engines committed on every route — rule-made
// changes on /stream and the work of a batch stopped at its deadline
// included.
func TestDispatchAccountsEveryRoute(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Shards: 2})
	short := shortTimeout(t, srv)
	ids := []string{"acct-rete", "acct-prete"}
	for i, matcher := range []string{"rete", "parallel-rete"} {
		c.must("POST", "/sessions", server.CreateSpec{ID: ids[i], Program: accountSrc, Matcher: matcher}, nil, http.StatusCreated)
	}
	legs := []struct {
		name string
		run  func(id string)
	}{
		{"/changes", func(id string) {
			c.must("POST", "/sessions/"+id+"/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
				{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 8.0)},
			}}, nil, http.StatusOK)
		}},
		{"/run with a cycle limit", func(id string) {
			var run server.RunResult
			c.must("POST", "/sessions/"+id+"/run", server.RunRequest{Cycles: 3}, &run, http.StatusOK)
			if !run.LimitHit || run.Cycles != 3 {
				t.Fatalf("%s: run = %+v, want 3 cycles and the limit hit", id, run)
			}
		}},
		{"TTL'd fraud /stream", func(id string) {
			if status, _ := drainStream(c, id, smallFraud()); status != http.StatusOK {
				t.Fatalf("%s: fraud stream status %d", id, status)
			}
		}},
		{"deadline-stopped /stream", func(id string) {
			if status, applied := drainStream(short, id, []byte(tickEvent)); status != http.StatusGatewayTimeout || applied != "1" {
				t.Errorf("%s: spinning stream = %d with %q applied, want 504 with 1", id, status, applied)
			}
		}},
	}
	for _, leg := range legs {
		for _, id := range ids {
			leg.run(id)
		}
		t.Run(leg.name, func(t *testing.T) { checkCountersMatchEngines(t, srv, c, ids) })
	}
}

// TestDispatchAccountsConcurrently: 8 goroutines over 4 sessions on 2
// shards, every request under a 50 ms deadline that some of them hit,
// leave the same equalities as TestDispatchAccountsEveryRoute.
func TestDispatchAccountsConcurrently(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Shards: 2})
	short := shortTimeout(t, srv)
	// Two driven sessions per shard: create in order until each shard
	// has two; a surplus session stays idle but is still summed.
	var ids, all []string
	perShard := map[int]int{}
	for i := 0; len(ids) < 4; i++ {
		id := fmt.Sprintf("acct-%d", i)
		var info server.SessionInfo
		c.must("POST", "/sessions", server.CreateSpec{ID: id, Program: accountSrc, Matcher: []string{"rete", "parallel-rete"}[i%2]}, &info, http.StatusCreated)
		all = append(all, id)
		if perShard[info.Shard] < 2 {
			perShard[info.Shard]++
			ids = append(ids, id)
		}
	}
	// One fraud stream per goroutine: replayed more often into one
	// session, its events pile up inside the window and the velocity
	// join's batches outgrow any deadline.
	fraud := smallFraud()
	// Any status is fine here (200, 504 or 408); the client helpers would
	// call t.Fatal off the test's goroutine, so post directly.
	post := func(path string, body []byte) {
		resp, err := short.http.Post(short.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			post("/sessions/"+id+"/changes", []byte(`{"changes":[{"op":"assert","class":"counter","attrs":{"n":0,"limit":5}}]}`))
			post("/sessions/"+id+"/run", []byte(`{"cycles":2}`))
			post("/sessions/"+id+"/stream", fraud)
			post("/sessions/"+id+"/stream", []byte(tickEvent))
			post("/sessions/"+id+"/run", []byte(`{"cycles":2}`))
		}(ids[g%len(ids)])
	}
	wg.Wait()
	checkCountersMatchEngines(t, srv, c, all)
	var buf bytes.Buffer
	srv.Registry().WriteText(&buf)
	if metricValue(buf.String(), "psmd_wme_changes_total") <= 0 {
		t.Error("psmd_wme_changes_total counted nothing; the test drove no work")
	}
}

// TestStreamCommittedBatchCountsAsApplied: a batch whose events were
// committed but whose cycles stop at the deadline is reported, and
// counted, as applied — a client resuming from X-Stream-Events-Applied
// must not send it again.
func TestStreamCommittedBatchCountsAsApplied(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Shards: 1})
	short := shortTimeout(t, srv)
	c.must("POST", "/sessions", server.CreateSpec{ID: "spin", Program: spinSrc}, nil, http.StatusCreated)
	status, applied := drainStream(short, "spin", []byte(tickEvent))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if applied != "1" {
		t.Errorf("X-Stream-Events-Applied = %q, want 1", applied)
	}
	var wm []server.WMEInfo
	c.must("GET", "/sessions/spin/wm?class=tick", nil, &wm, http.StatusOK)
	if len(wm) != 1 {
		t.Fatalf("working memory holds %d ticks, want the 1 streamed", len(wm))
	}
	var buf bytes.Buffer
	srv.Registry().WriteText(&buf)
	for _, name := range []string{"psmd_stream_events_total", "psmd_stream_batches_total"} {
		if v := metricValue(buf.String(), name); v != 1 {
			t.Errorf("%s = %v, want 1", name, v)
		}
	}
}
