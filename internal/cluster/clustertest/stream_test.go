package clustertest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// streamTo posts NDJSON to one node's stream endpoint and returns the
// status plus decoded summary (zero on non-200).
func streamTo(t *testing.T, cl *http.Client, base, id string, body []byte) (int, server.StreamResult) {
	t.Helper()
	resp, err := cl.Post(base+"/v1/sessions/"+id+"/stream", "application/x-ndjson",
		bytes.NewReader(body))
	if err != nil {
		return 0, server.StreamResult{}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	var res server.StreamResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("stream response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, res
}

// streamReference runs the fraud stream uninterrupted on a plain
// single-node server, returning the /wm and session-stats bytes after
// each half — the oracle for the failover differential.
func streamReference(t *testing.T, id string, halves [][]byte) (wm []string, clocks []int64, expired []int) {
	t.Helper()
	srv := server.New(server.Config{Shards: 2})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.HandlerWith(server.HandlerConfig{DisablePprof: true}))
	t.Cleanup(ts.Close)
	cl := ts.Client()
	buf, err := json.Marshal(server.CreateSpec{ID: id, Program: workload.FraudRules, Matcher: "rete"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("reference create: %d", resp.StatusCode)
	}
	for _, half := range halves {
		if code, _ := streamTo(t, cl, ts.URL, id, half); code != http.StatusOK {
			t.Fatalf("reference stream: %d", code)
		}
		_, w := rawGet(t, cl, ts.URL+"/v1/sessions/"+id+"/wm")
		var info server.SessionInfo
		_, st := rawGet(t, cl, ts.URL+"/v1/sessions/"+id)
		if err := json.Unmarshal(st, &info); err != nil {
			t.Fatal(err)
		}
		wm = append(wm, string(w))
		clocks = append(clocks, info.Clock)
		expired = append(expired, info.Expired)
	}
	return wm, clocks, expired
}

// TestClusterStreamFailoverExpiryParity is the replication half of the
// expiring-fact differential: a fraud session ingests half its event
// stream, the owner is killed abruptly, and the promoted follower must
// hold the same working memory, logical clock and expiry count as an
// uninterrupted single-node run — WAL shipping carries expiry batches
// and pure clock advances, so replicas re-derive nothing. The second
// half then streams into the promoted copy and must land on the same
// final state.
func TestClusterStreamFailoverExpiryParity(t *testing.T) {
	events := workload.FraudEvents(workload.FraudParams{Cards: 20, Events: 600, Window: 15, Seed: 7})
	half := len(events) / 2
	halves := [][]byte{workload.NDJSON(events[:half]), workload.NDJSON(events[half:])}
	const id = "fraud-ha"
	refWM, refClock, refExpired := streamReference(t, id, halves)

	c := Start(t, 3, true)
	c.MustJSON(0, "POST", "/v1/sessions",
		server.CreateSpec{ID: id, Program: workload.FraudRules, Matcher: "rete"},
		nil, http.StatusCreated)
	owner := c.OwnerOf(id)
	if owner < 0 {
		t.Fatal("no owner after create")
	}
	cl := c.Client()
	if code, res := streamTo(t, cl, c.Nodes[owner].URL(), id, halves[0]); code != http.StatusOK {
		t.Fatalf("stream to owner: %d", code)
	} else if res.Expired == 0 {
		t.Fatalf("first half expired nothing: %+v", res)
	}
	c.WaitReplicated(owner, id)
	c.Kill(owner)

	survivor := (owner + 1) % 3
	var wm []byte
	c.WaitFor(10*time.Second, "failover of "+id, func() bool {
		code, body := rawGet(t, cl, c.Nodes[survivor].URL()+"/v1/sessions/"+id+"/wm")
		wm = body
		return code == http.StatusOK
	})
	if string(wm) != refWM[0] {
		t.Fatalf("promoted WM diverged:\n got %s\nwant %s", wm, refWM[0])
	}
	var info server.SessionInfo
	c.MustJSON(survivor, "GET", "/v1/sessions/"+id, nil, &info, http.StatusOK)
	if info.Clock != refClock[0] || info.Expired != refExpired[0] {
		t.Fatalf("promoted clock/expired = %d/%d, reference %d/%d",
			info.Clock, info.Expired, refClock[0], refExpired[0])
	}

	// The promoted copy continues the stream to the same final state.
	if code, _ := streamTo(t, cl, c.Nodes[survivor].URL(), id, halves[1]); code != http.StatusOK {
		t.Fatalf("stream to promoted copy: %d", code)
	}
	_, wm2 := rawGet(t, cl, c.Nodes[survivor].URL()+"/v1/sessions/"+id+"/wm")
	if string(wm2) != refWM[1] {
		t.Fatalf("post-failover final WM diverged:\n got %s\nwant %s", wm2, refWM[1])
	}
	c.MustJSON(survivor, "GET", "/v1/sessions/"+id, nil, &info, http.StatusOK)
	if info.Clock != refClock[1] || info.Expired != refExpired[1] {
		t.Fatalf("final clock/expired = %d/%d, reference %d/%d",
			info.Clock, info.Expired, refClock[1], refExpired[1])
	}
}
