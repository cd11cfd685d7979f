package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/workload"
)

// postStream sends raw NDJSON to the stream endpoint and returns the
// response.
func (c *client) postStream(id string, body []byte) *http.Response {
	c.t.Helper()
	resp, err := c.http.Post(c.base+"/sessions/"+id+"/stream", "application/x-ndjson",
		bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	return resp
}

func TestStreamIngestFraud(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Shards: 2})
	var sess server.SessionInfo
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "fraud", Program: workload.FraudRules, Matcher: "rete",
	}, &sess, http.StatusCreated)

	events := workload.FraudEvents(workload.DefaultFraudParams())
	resp := c.postStream("fraud", workload.NDJSON(events))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, raw)
	}
	var res server.StreamResult
	if err := jsonDecode(resp.Body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Events != len(events) {
		t.Fatalf("applied %d events, want %d", res.Events, len(events))
	}
	if res.Batches != (len(events)+255)/256 {
		t.Fatalf("batches = %d, want %d", res.Batches, (len(events)+255)/256)
	}
	if res.Fired == 0 {
		t.Fatal("no alerts fired — fraud pack never matched")
	}
	if res.Expired == 0 {
		t.Fatal("no events expired — TTL retraction never ran")
	}
	if res.Clock == 0 {
		t.Fatal("logical clock never advanced")
	}
	// Events plus alerts expire; by end-of-stream working memory holds
	// only the last window's worth of events, far fewer than ingested.
	if res.WMSize >= len(events) {
		t.Fatalf("WM size %d did not shrink below %d ingested events", res.WMSize, len(events))
	}

	var info server.SessionInfo
	c.must("GET", "/sessions/fraud", nil, &info, http.StatusOK)
	if info.Clock != res.Clock || info.Expired != res.Expired {
		t.Fatalf("session stats clock/expired = %d/%d, stream reported %d/%d",
			info.Clock, info.Expired, res.Clock, res.Expired)
	}

	// The stream counters made it to the registry.
	var buf bytes.Buffer
	srv.Registry().WriteText(&buf)
	for _, metric := range []string{
		"psmd_stream_events_total", "psmd_stream_batches_total", "psmd_expired_wmes_total",
	} {
		if v := metricValue(buf.String(), metric); v <= 0 {
			t.Errorf("metric %s = %v, want > 0", metric, v)
		}
	}
	if v := metricValue(buf.String(), "psmd_stream_lag_events"); v != 0 {
		t.Errorf("psmd_stream_lag_events = %v after stream closed, want 0", v)
	}

	// A stream batch span landed in the trace ring.
	var tr server.TraceResult
	c.must("GET", "/sessions/fraud/trace", nil, &tr, http.StatusOK)
	var sawStream bool
	for _, sp := range tr.Spans {
		if sp.Kind == "stream" {
			sawStream = true
		}
	}
	if !sawStream {
		t.Error("no stream-kind span in the session trace")
	}
}

func TestStreamIngestMonitor(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	var sess server.SessionInfo
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "mon", Program: workload.MonitorRules, Matcher: "rete",
	}, &sess, http.StatusCreated)
	events := workload.MonitorEvents(workload.DefaultMonitorParams())
	resp := c.postStream("mon", workload.NDJSON(events))
	defer resp.Body.Close()
	var res server.StreamResult
	if err := jsonDecode(resp.Body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Events != len(events) || res.Fired == 0 || res.Expired == 0 {
		t.Fatalf("monitor stream = %+v", res)
	}
}

func TestStreamBadLineReportsProgress(t *testing.T) {
	// 300 good events (one full 256-batch applies) then a broken line: not
	// JSON at all, a line holding more than its one event, or an event
	// whose negative TTL would keep it forever. Nothing of the second
	// batch applies: the session ends as one fed the first batch alone.
	events := workload.FraudEvents(workload.FraudParams{Cards: 10, Events: 300, Window: 20, Seed: 1})
	for _, bad := range []string{
		"{not json}\n",
		`{"class":"txn","attrs":{"card":"c1"}} {"class":"txn","attrs":{"card":"c2"}}` + "\n",
		`{"class":"txn","attrs":{"card":"c1"},"ts":100000,"ttl":-1}` + "\n",
	} {
		_, c := newTestServer(t, server.Config{Shards: 1})
		c.must("POST", "/sessions", server.CreateSpec{
			ID: "fraud", Program: workload.FraudRules, Matcher: "rete",
		}, nil, http.StatusCreated)
		resp := c.postStream("fraud", append(workload.NDJSON(events), bad...))
		var env server.ErrorResponse
		if err := jsonDecode(resp.Body, &env); err != nil {
			t.Errorf("%q: error body is not the envelope: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Code != "bad_request" {
			t.Errorf("%q: status %d code %q, want 400 bad_request", bad, resp.StatusCode, env.Code)
		}
		if got := resp.Header.Get("X-Stream-Events-Applied"); got != "256" {
			t.Errorf("%q: X-Stream-Events-Applied = %q, want 256", bad, got)
		}
		c.must("POST", "/sessions", server.CreateSpec{
			ID: "ref", Program: workload.FraudRules, Matcher: "rete",
		}, nil, http.StatusCreated)
		streamInto(t, c, "ref", workload.NDJSON(events[:256]))
		var got, want server.SessionInfo
		c.must("GET", "/sessions/fraud", nil, &got, http.StatusOK)
		c.must("GET", "/sessions/ref", nil, &want, http.StatusOK)
		if got.Clock != want.Clock || got.WMSize != want.WMSize || got.Fired != want.Fired {
			t.Errorf("%q: clock/wm/fired %d/%d/%d, want the first batch's %d/%d/%d",
				bad, got.Clock, got.WMSize, got.Fired, want.Clock, want.WMSize, want.Fired)
		}
	}
}

func TestStreamUnknownFieldRejected(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "fraud", Program: workload.FraudRules, Matcher: "rete",
	}, nil, http.StatusCreated)
	resp := c.postStream("fraud", []byte(`{"class":"txn","bogus":1}`+"\n"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for unknown field", resp.StatusCode)
	}
}

func TestStreamNoSession(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	resp := c.postStream("ghost", []byte(`{"class":"txn","ttl":5}`+"\n"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("X-Stream-Events-Applied") != "0" {
		t.Fatal("progress header missing on mid-stream failure")
	}
}

// TestStreamWithoutEventsReportsSession: a stream that carries no event
// still names a session. An unknown one is 404; a live one answers with
// its real clock, working-memory and conflict-set sizes and no batch.
func TestStreamWithoutEventsReportsSession(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	for _, body := range []string{"", "\n \n"} {
		resp := c.postStream("nope", []byte(body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("empty stream %q to an unknown session: status %d, want 404", body, resp.StatusCode)
		}
	}

	c.must("POST", "/sessions", server.CreateSpec{
		ID: "fraud", Program: workload.FraudRules, Matcher: "rete",
	}, nil, http.StatusCreated)
	events := workload.FraudEvents(workload.FraudParams{Cards: 5, Events: 40, Window: 20, Seed: 3})
	fed := streamInto(t, c, "fraud", workload.NDJSON(events))
	if fed.Clock == 0 || fed.WMSize == 0 {
		t.Fatalf("stream left clock %d, wm %d; want both non-zero", fed.Clock, fed.WMSize)
	}
	for _, body := range []string{"", "\n \n"} {
		got := streamInto(t, c, "fraud", []byte(body))
		want := server.StreamResult{SessionID: "fraud", Clock: fed.Clock, WMSize: fed.WMSize, ConflictSize: fed.ConflictSize}
		if got != want {
			t.Errorf("empty stream %q: %+v, want %+v", body, got, want)
		}
	}
}

func TestStreamEmptyClassRejected(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "fraud", Program: workload.FraudRules, Matcher: "rete",
	}, nil, http.StatusCreated)
	resp := c.postStream("fraud", []byte(`{"ttl":5}`+"\n"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for missing class", resp.StatusCode)
	}
}

// TestStreamDeterministicAcrossMatchers streams the same fraud workload
// into a serial-Rete and a parallel-Rete session and expects identical
// end states — the windowed join is matcher-independent.
func TestStreamDeterministicAcrossMatchers(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 2})
	events := workload.NDJSON(workload.FraudEvents(workload.DefaultFraudParams()))
	results := make(map[string]server.StreamResult)
	for _, m := range []string{"rete", "parallel-rete"} {
		c.must("POST", "/sessions", server.CreateSpec{
			ID: m, Program: workload.FraudRules, Matcher: m,
		}, nil, http.StatusCreated)
		resp := c.postStream(m, events)
		var res server.StreamResult
		if err := jsonDecode(resp.Body, &res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		res.SessionID = ""
		results[m] = res
	}
	if results["rete"] != results["parallel-rete"] {
		t.Fatalf("matchers diverged:\n rete: %+v\n prete: %+v",
			results["rete"], results["parallel-rete"])
	}
}

// streamInto streams NDJSON into a session and fails the test on a
// non-200 response.
func streamInto(t *testing.T, c *client, id string, body []byte) server.StreamResult {
	t.Helper()
	resp := c.postStream(id, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream into %s: status %d: %s", id, resp.StatusCode, raw)
	}
	var res server.StreamResult
	if err := jsonDecode(resp.Body, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// streamState is the expiry-relevant slice of a session's state used by
// the recovery-parity differential.
type streamState struct {
	Clock                  int64
	Expired, Pending       int
	Cycles, Fired, Changes int
	WMSize, ConflictSize   int
}

func captureStreamState(t *testing.T, c *client, id string) (streamState, []server.WMEInfo) {
	t.Helper()
	var info server.SessionInfo
	var wm []server.WMEInfo
	c.must("GET", "/sessions/"+id, nil, &info, http.StatusOK)
	c.must("GET", "/sessions/"+id+"/wm", nil, &wm, http.StatusOK)
	return streamState{
		Clock: info.Clock, Expired: info.Expired, Pending: info.PendingExpiries,
		Cycles: info.Cycles, Fired: info.Fired, Changes: info.TotalChanges,
		WMSize: info.WMSize, ConflictSize: info.ConflictSize,
	}, wm
}

// TestStreamExpiryRecoveryParity is the expiring-fact differential: a
// durable session is killed (listener dropped, no shutdown) midway
// through an event stream, restarted, and resumed. The recovered
// session must come back with the exact mid-stream state — logical
// clock, expiry counters, pending deadlines, working memory — and,
// fed the rest of the stream, must expire the same WMEs at the same
// logical ticks as an uninterrupted control run: final states compare
// equal, field for field and WME for WME.
func TestStreamExpiryRecoveryParity(t *testing.T) {
	events := workload.FraudEvents(workload.FraudParams{Cards: 20, Events: 600, Window: 15, Seed: 7})
	half := len(events) / 2
	first, second := workload.NDJSON(events[:half]), workload.NDJSON(events[half:])
	create := server.CreateSpec{ID: "fraud", Program: workload.FraudRules, Matcher: "rete"}

	// Control: one uninterrupted run.
	_, control := newTestServer(t, server.Config{Shards: 1})
	control.must("POST", "/sessions", create, nil, http.StatusCreated)
	streamInto(t, control, "fraud", first)
	streamInto(t, control, "fraud", second)
	wantFinal, wantFinalWM := captureStreamState(t, control, "fraud")

	// Crash run: durable, killed after the first half.
	dataDir := t.TempDir()
	cfg := server.Config{Shards: 1, DataDir: dataDir}
	c1, crash := crashableServer(t, cfg)
	c1.must("POST", "/sessions", create, nil, http.StatusCreated)
	streamInto(t, c1, "fraud", first)
	wantMid, wantMidWM := captureStreamState(t, c1, "fraud")
	if wantMid.Expired == 0 || wantMid.Pending == 0 {
		t.Fatalf("mid-stream state exercises no expiries: %+v", wantMid)
	}
	crash()

	// Recovery must land on the exact mid-stream state.
	_, c2 := newTestServer(t, cfg)
	gotMid, gotMidWM := captureStreamState(t, c2, "fraud")
	if gotMid != wantMid {
		t.Fatalf("recovered state diverged:\nwant %+v\n got %+v", wantMid, gotMid)
	}
	if !reflect.DeepEqual(gotMidWM, wantMidWM) {
		t.Fatalf("recovered WM diverged:\nwant %+v\n got %+v", wantMidWM, gotMidWM)
	}

	// Resuming the stream must reproduce the control run exactly: every
	// later expiry hits the same WME at the same logical tick, so the
	// final states are indistinguishable.
	streamInto(t, c2, "fraud", second)
	gotFinal, gotFinalWM := captureStreamState(t, c2, "fraud")
	if gotFinal != wantFinal {
		t.Fatalf("resumed run diverged from control:\nwant %+v\n got %+v", wantFinal, gotFinal)
	}
	if !reflect.DeepEqual(gotFinalWM, wantFinalWM) {
		t.Fatalf("resumed WM diverged from control:\nwant %+v\n got %+v", wantFinalWM, gotFinalWM)
	}
}

// TestStreamSnapshotRecoveryParity checks the snapshot path carries the
// expiry table: checkpoint mid-stream (so recovery starts from the v3
// snapshot, not WAL replay alone), crash, recover, resume, compare.
func TestStreamSnapshotRecoveryParity(t *testing.T) {
	events := workload.MonitorEvents(workload.MonitorParams{Hosts: 10, Events: 400, Window: 12, Seed: 11})
	half := len(events) / 2
	first, second := workload.NDJSON(events[:half]), workload.NDJSON(events[half:])
	create := server.CreateSpec{ID: "mon", Program: workload.MonitorRules, Matcher: "rete"}

	_, control := newTestServer(t, server.Config{Shards: 1})
	control.must("POST", "/sessions", create, nil, http.StatusCreated)
	streamInto(t, control, "mon", first)
	streamInto(t, control, "mon", second)
	wantFinal, wantFinalWM := captureStreamState(t, control, "mon")

	dataDir := t.TempDir()
	cfg := server.Config{Shards: 1, DataDir: dataDir}
	c1, crash := crashableServer(t, cfg)
	c1.must("POST", "/sessions", create, nil, http.StatusCreated)
	streamInto(t, c1, "mon", first)
	c1.must("POST", "/sessions/mon/snapshot", nil, nil, http.StatusOK)
	wantMid, _ := captureStreamState(t, c1, "mon")
	if wantMid.Pending == 0 {
		t.Fatalf("no pending expiries at checkpoint: %+v", wantMid)
	}
	crash()

	_, c2 := newTestServer(t, cfg)
	var info server.SessionInfo
	c2.must("GET", "/sessions/mon", nil, &info, http.StatusOK)
	if info.ReplayedRecords != 0 {
		t.Fatalf("recovery replayed %d WAL records, want snapshot-only", info.ReplayedRecords)
	}
	gotMid, _ := captureStreamState(t, c2, "mon")
	if gotMid != wantMid {
		t.Fatalf("snapshot recovery diverged:\nwant %+v\n got %+v", wantMid, gotMid)
	}
	streamInto(t, c2, "mon", second)
	gotFinal, gotFinalWM := captureStreamState(t, c2, "mon")
	if gotFinal != wantFinal {
		t.Fatalf("resumed run diverged from control:\nwant %+v\n got %+v", wantFinal, gotFinal)
	}
	if !reflect.DeepEqual(gotFinalWM, wantFinalWM) {
		t.Fatalf("resumed WM diverged from control:\nwant %+v\n got %+v", wantFinalWM, gotFinalWM)
	}
}

// jsonDecode decodes one JSON body.
func jsonDecode(r io.Reader, dst any) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, dst)
}

// TestExpiredCounterCountsOperations: psmd_expired_wmes_total advances
// by the expiries each /stream reply reports and each /run performs,
// and a recovered session's restored expiry count is not counted again.
func TestExpiredCounterCountsOperations(t *testing.T) {
	events := workload.FraudEvents(workload.FraudParams{Cards: 20, Events: 600, Window: 15, Seed: 7})
	half := len(events) / 2
	cfg := server.Config{Shards: 1, DataDir: t.TempDir()}
	start := func() (*server.Server, *client, func()) {
		srv := server.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		return srv, newClient(t, ts), ts.Close
	}
	counter := func(srv *server.Server) int {
		var buf bytes.Buffer
		srv.Registry().WriteText(&buf)
		return int(metricValue(buf.String(), "psmd_expired_wmes_total"))
	}

	srv1, c1, crash := start()
	c1.must("POST", "/sessions", server.CreateSpec{ID: "fraud", Program: workload.FraudRules, Matcher: "rete"}, nil, http.StatusCreated)
	want := streamInto(t, c1, "fraud", workload.NDJSON(events[:half])).Expired
	// A /run expires too: a fact with a one-tick TTL leaves at the first
	// cycle's clock tick.
	c1.must("POST", "/sessions", server.CreateSpec{ID: "count", Program: counterSrc}, nil, http.StatusCreated)
	c1.must("POST", "/sessions/count/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 3.0)},
		{Op: server.OpAssert, Class: "tmp", Attrs: attrs(ops5.TTLAttrName, 1.0)},
	}}, nil, http.StatusOK)
	c1.must("POST", "/sessions/count/run", server.RunRequest{}, nil, http.StatusOK)
	var info server.SessionInfo
	c1.must("GET", "/sessions/count", nil, &info, http.StatusOK)
	if want == 0 || info.Expired != 1 {
		t.Fatalf("stream expired %d, run expired %d; want both > 0", want, info.Expired)
	}
	if got := counter(srv1); got != want+info.Expired {
		t.Fatalf("psmd_expired_wmes_total = %d, want %d (stream) + %d (run)", got, want, info.Expired)
	}
	crash()

	srv2, c2, _ := start()
	t.Cleanup(func() { srv2.Close() })
	c2.must("GET", "/sessions/fraud", nil, &info, http.StatusOK)
	if !info.Recovered || info.Expired < want {
		t.Fatalf("recovered session: recovered %v, expired %d; want true, >= %d", info.Recovered, info.Expired, want)
	}
	res := streamInto(t, c2, "fraud", workload.NDJSON(events[half:]))
	if got := counter(srv2); got != res.Expired {
		t.Errorf("after recovery psmd_expired_wmes_total = %d, want the %d the stream reported", got, res.Expired)
	}
}
