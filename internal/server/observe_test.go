package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// syncBuffer is a goroutine-safe log sink: request goroutines write log
// lines while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines decodes every JSON log line currently in the buffer.
func (b *syncBuffer) logLines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// waitFor polls until cond passes or the deadline expires; request log
// lines are written after the response, so tests must tolerate a beat
// of asynchrony.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// startCounter creates a counter session and runs it to halt.
func startCounter(t *testing.T, c *client, id, matcher string, limit int) {
	t.Helper()
	c.must("POST", "/sessions", server.CreateSpec{
		ID: id, Program: counterSrc, Matcher: matcher,
	}, nil, http.StatusCreated)
	c.must("POST", "/sessions/"+id+"/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", float64(limit))},
	}}, nil, http.StatusOK)
	var run server.RunResult
	c.must("POST", "/sessions/"+id+"/run", server.RunRequest{}, &run, http.StatusOK)
	if !run.Halted {
		t.Fatalf("counter did not halt: %+v", run)
	}
}

func TestTraceEndpointAndEvictionArchive(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 2})
	startCounter(t, c, "traced", "rete", 5)

	var tr server.TraceResult
	c.must("GET", "/sessions/traced/trace", nil, &tr, http.StatusOK)
	if tr.SessionID != "traced" || tr.Evicted {
		t.Fatalf("trace = %+v, want live session traced", tr)
	}
	// One apply span for the change batch, then one span per cycle
	// (limit+1 cycles: limit counts plus the done/halt firing).
	if tr.Total != int64(len(tr.Spans)) || len(tr.Spans) != 7 {
		t.Fatalf("spans = %d (total %d), want 7", len(tr.Spans), tr.Total)
	}
	if tr.Spans[0].Kind != "apply" || tr.Spans[0].Changes != 1 {
		t.Errorf("first span = %+v, want the change batch's apply span", tr.Spans[0])
	}
	for i, sp := range tr.Spans[1:] {
		if sp.Kind != "cycle" || sp.Cycle != i+1 || sp.Fired != 1 {
			t.Errorf("span %d = %+v, want cycle %d fired 1", i+1, sp, i+1)
		}
		if sp.TraceID == "" {
			t.Errorf("span %d has no trace ID", i+1)
		}
	}

	// The session summary carries the trace's shape.
	var sess server.SessionInfo
	c.must("GET", "/sessions/traced", nil, &sess, http.StatusOK)
	if sess.TraceSpans != 7 || sess.TraceTotal != 7 {
		t.Errorf("session trace summary = %d/%d, want 7/7", sess.TraceSpans, sess.TraceTotal)
	}

	// Deleting the session moves the trace to the archive.
	c.must("DELETE", "/sessions/traced", nil, nil, http.StatusNoContent)
	c.must("GET", "/sessions/traced/trace", nil, &tr, http.StatusOK)
	if !tr.Evicted || len(tr.Spans) != 7 {
		t.Fatalf("archived trace = evicted=%v spans=%d, want evicted with 7 spans", tr.Evicted, len(tr.Spans))
	}
	// Other endpoints still 404 for the deleted session.
	if got := c.do("GET", "/sessions/traced", nil, nil); got != http.StatusNotFound {
		t.Errorf("stats after delete = %d, want 404", got)
	}
	// A never-created session has no trace anywhere.
	if got := c.do("GET", "/sessions/ghost/trace", nil, nil); got != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", got)
	}
}

func TestTraceRingBoundsSpans(t *testing.T) {
	_, c := newTestServer(t, server.Config{TraceDepth: 4})
	startCounter(t, c, "bounded", "rete", 10)
	var tr server.TraceResult
	c.must("GET", "/sessions/bounded/trace", nil, &tr, http.StatusOK)
	if len(tr.Spans) != 4 {
		t.Fatalf("retained spans = %d, want ring depth 4", len(tr.Spans))
	}
	if tr.Total != 12 { // 1 apply + 11 cycles
		t.Errorf("total = %d, want 12", tr.Total)
	}
	// The ring keeps the most recent window: the halt cycle is last.
	last := tr.Spans[len(tr.Spans)-1]
	if last.Cycle != 11 {
		t.Errorf("last span cycle = %d, want 11", last.Cycle)
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	for _, matcher := range []string{"rete", "parallel-rete"} {
		id := "prof-" + matcher
		startCounter(t, c, id, matcher, 6)
		var prof server.ProfileResult
		c.must("GET", "/sessions/"+id+"/profile", nil, &prof, http.StatusOK)
		if !prof.NodesSupported || len(prof.Nodes) == 0 {
			t.Fatalf("%s: profile = %+v, want node entries", matcher, prof)
		}
		var sum float64
		for i, n := range prof.Nodes {
			if i > 0 && prof.Nodes[i-1].Cost < n.Cost {
				t.Errorf("%s: nodes not sorted by cost: %g then %g", matcher, prof.Nodes[i-1].Cost, n.Cost)
			}
			if n.Activations <= 0 || n.Label == "" {
				t.Errorf("%s: bad node entry %+v", matcher, n)
			}
			sum += n.Cost
		}
		if prof.TotalCost <= 0 || sum != prof.TotalCost {
			t.Errorf("%s: total cost %g, node sum %g", matcher, prof.TotalCost, sum)
		}
		if prof.MatchStats == nil || prof.MatchStats.Changes == 0 {
			t.Errorf("%s: missing match stats: %+v", matcher, prof.MatchStats)
		}

		// ?top= truncates and reports how much was dropped.
		var top server.ProfileResult
		c.must("GET", "/sessions/"+id+"/profile?top=1", nil, &top, http.StatusOK)
		if len(top.Nodes) != 1 || top.Truncated != len(prof.Nodes)-1 {
			t.Errorf("%s: top=1 gave %d nodes, truncated %d", matcher, len(top.Nodes), top.Truncated)
		}
		if got := c.do("GET", "/sessions/"+id+"/profile?top=x", nil, nil); got != http.StatusBadRequest {
			t.Errorf("%s: bad top param = %d, want 400", matcher, got)
		}
	}

	// Matchers without a node network degrade to whole-matcher stats.
	startCounter(t, c, "prof-naive", "naive", 3)
	var prof server.ProfileResult
	c.must("GET", "/sessions/prof-naive/profile", nil, &prof, http.StatusOK)
	if prof.NodesSupported || len(prof.Nodes) != 0 {
		t.Errorf("naive: profile claims nodes: %+v", prof)
	}
	if prof.MatchStats == nil {
		t.Error("naive: missing match stats")
	}
}

func TestRequestIDPropagatesToSpans(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := newClient(t, ts)

	c.must("POST", "/sessions", server.CreateSpec{
		ID: "rid", Program: counterSrc,
	}, nil, http.StatusCreated)
	// Apply the seed batch under its own caller-chosen request ID: the
	// apply span must be attributed to the request that committed it.
	chBody, _ := json.Marshal(server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 3.0)},
	}})
	chReq, err := http.NewRequest("POST", ts.URL+server.APIVersion+"/sessions/rid/changes", bytes.NewReader(chBody))
	if err != nil {
		t.Fatal(err)
	}
	chReq.Header.Set("X-Request-Id", "req-cafe")
	chResp, err := ts.Client().Do(chReq)
	if err != nil {
		t.Fatal(err)
	}
	chResp.Body.Close()
	if chResp.StatusCode != http.StatusOK {
		t.Fatalf("changes status = %d", chResp.StatusCode)
	}

	// Run with a caller-chosen request ID.
	body, _ := json.Marshal(server.RunRequest{})
	req, err := http.NewRequest("POST", ts.URL+server.APIVersion+"/sessions/rid/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "req-deadbeef")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-deadbeef" {
		t.Errorf("echoed request ID = %q, want req-deadbeef", got)
	}

	var tr server.TraceResult
	c.must("GET", "/sessions/rid/trace", nil, &tr, http.StatusOK)
	cycles, applies := 0, 0
	for _, sp := range tr.Spans {
		switch sp.Kind {
		case "cycle":
			cycles++
			if sp.TraceID != "req-deadbeef" {
				t.Errorf("cycle %d trace = %q, want req-deadbeef", sp.Cycle, sp.TraceID)
			}
		case "apply":
			applies++
			if sp.TraceID != "req-cafe" {
				t.Errorf("apply span trace = %q, want req-cafe", sp.TraceID)
			}
		}
	}
	if cycles == 0 || applies == 0 {
		t.Fatalf("spans recorded: %d cycle, %d apply; want both > 0", cycles, applies)
	}

	// Requests without the header get a generated ID.
	resp2, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-Id") == "" {
		t.Error("no generated request ID on response")
	}
}

// TestClientTraceIDBounded: a client's X-Request-Id becomes the trace
// ID only when it is at most 128 bytes of visible ASCII, because the ID
// is kept in every span of the trace ring and the archive. A longer one,
// or one with a space, is replaced by a generated 16-hex ID, in the
// reply header and in /trace alike.
func TestClientTraceIDBounded(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := newClient(t, ts)
	generated := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for i, tc := range []struct {
		id   string
		keep bool
	}{
		{strings.Repeat("x", 4096), false},
		{"req with space", false},
		{strings.Repeat("k", 128), true},
	} {
		id := fmt.Sprintf("tid-%d", i)
		c.must("POST", "/sessions", server.CreateSpec{ID: id, Program: counterSrc}, nil, http.StatusCreated)
		body, _ := json.Marshal(server.ChangesRequest{Changes: []server.ChangeSpec{
			{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 1.0)},
		}})
		req, err := http.NewRequest("POST", ts.URL+server.APIVersion+"/sessions/"+id+"/changes", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", tc.id)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		switch {
		case resp.StatusCode != http.StatusOK:
			t.Fatalf("%d-byte ID: status %d", len(tc.id), resp.StatusCode)
		case tc.keep && got != tc.id:
			t.Errorf("%d-byte ID echoed as %q, want it unchanged", len(tc.id), got)
		case !tc.keep && !generated.MatchString(got):
			t.Errorf("%d-byte ID %.20q echoed as %.20q, want a generated 16-hex ID", len(tc.id), tc.id, got)
		}
		var tr server.TraceResult
		c.must("GET", "/sessions/"+id+"/trace", nil, &tr, http.StatusOK)
		if len(tr.Spans) == 0 {
			t.Fatalf("session %s: no spans", id)
		}
		for _, sp := range tr.Spans {
			if sp.TraceID != got {
				t.Errorf("session %s: %s span trace ID %.20q, want the echoed %.20q", id, sp.Kind, sp.TraceID, got)
			}
		}
	}
}

func TestRequestLogging(t *testing.T) {
	buf := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(buf, nil))
	_, c := newTestServer(t, server.Config{Logger: logger})
	startCounter(t, c, "logged", "rete", 3)

	var runLine map[string]any
	waitFor(t, func() bool {
		for _, line := range buf.logLines(t) {
			if line["msg"] == "request" && line["path"] == "/v1/sessions/logged/run" {
				runLine = line
				return true
			}
		}
		return false
	})
	if runLine["trace_id"] == "" || runLine["trace_id"] == nil {
		t.Errorf("run log line missing trace_id: %v", runLine)
	}
	if runLine["session"] != "logged" {
		t.Errorf("run log line session = %v, want logged", runLine["session"])
	}
	if _, ok := runLine["shard"].(float64); !ok {
		t.Errorf("run log line missing shard: %v", runLine)
	}
	if runLine["status"] != float64(http.StatusOK) {
		t.Errorf("run log line status = %v, want 200", runLine["status"])
	}
	if _, ok := runLine["latency"]; !ok {
		t.Errorf("run log line missing latency: %v", runLine)
	}

	// Scrape endpoints stay out of info-level logs.
	resp, err := http.Get(c.raw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, line := range buf.logLines(t) {
		if line["path"] == "/metrics" {
			t.Errorf("scrape logged at info level: %v", line)
		}
	}
}

func TestSlowCycleLogDumpsSpan(t *testing.T) {
	buf := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(buf, nil))
	// Any cycle beats a 1ns threshold, so every cycle logs.
	_, c := newTestServer(t, server.Config{Logger: logger, SlowCycle: time.Nanosecond})
	startCounter(t, c, "slow", "rete", 2)

	waitFor(t, func() bool {
		for _, line := range buf.logLines(t) {
			if line["msg"] == "slow cycle" {
				return true
			}
		}
		return false
	})
	for _, line := range buf.logLines(t) {
		if line["msg"] != "slow cycle" {
			continue
		}
		if line["session"] != "slow" {
			t.Errorf("slow-cycle line session = %v", line["session"])
		}
		for _, key := range []string{"trace_id", "kind", "cycle", "total", "match", "select", "act", "fired", "wm_size", "conflict_size"} {
			if _, ok := line[key]; !ok {
				t.Errorf("slow-cycle line missing %q: %v", key, line)
			}
		}
		return
	}
}

func TestPprofMountedByDefault(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	resp, err := http.Get(ts.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof heap = %d, want 200", resp.StatusCode)
	}

	srv2 := server.New(server.Config{})
	ts2 := httptest.NewServer(srv2.HandlerWith(server.HandlerConfig{DisablePprof: true}))
	t.Cleanup(func() { ts2.Close(); srv2.Close() })
	resp2, err := http.Get(ts2.URL + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled pprof = %d, want 404", resp2.StatusCode)
	}
}

func TestRuntimeGaugesExposed(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := readAll(t, resp)
	for _, want := range []string{"psmd_goroutines", "psmd_heap_alloc_bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %s:\n%s", want, out)
		}
	}
}

// readAll drains a response body as a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
