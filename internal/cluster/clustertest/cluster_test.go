package clustertest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ops5"
	"repro/internal/server"
)

// deadAfter is the harness's dead timer: ten heartbeats of silence.
const deadAfter = 10 * Heartbeat

// counterSrc counts up to ^limit then halts — the same deterministic
// program the server tests use, so reference runs are cheap.
const counterSrc = `
(p count
    (counter ^n <n> ^limit <l>)
  - (counter ^n <l>)
  -->
    (modify 1 ^n (compute <n> + 1)))
(p done
    (counter ^n <n> ^limit <n>)
  -->
    (make result ^n <n>)
    (halt))
`

// sessionOps is the scripted workload both the cluster and the
// single-node reference execute, so their final states can be compared
// byte for byte.
type sessionOps struct {
	id string
}

func (o sessionOps) create() server.CreateSpec {
	return server.CreateSpec{ID: o.id, Program: counterSrc, Matcher: "rete"}
}

func (o sessionOps) seed() server.ChangesRequest {
	return server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: map[string]ops5.Value{"n": ops5.Num(0), "limit": ops5.Num(1000)}},
	}}
}

// rawGet fetches a URL and returns status and body bytes.
func rawGet(t *testing.T, cl *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := cl.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// reference runs the same ops on a plain single-node server and
// returns the /wm and /conflicts bytes after each run step.
func reference(t *testing.T, ops sessionOps, runs int) (wm, conflicts [][]byte) {
	t.Helper()
	srv := server.New(server.Config{Shards: 2})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.HandlerWith(server.HandlerConfig{DisablePprof: true}))
	t.Cleanup(ts.Close)
	cl := ts.Client()
	post := func(path string, body any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Post(ts.URL+server.APIVersion+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("reference POST %s: %d %s", path, resp.StatusCode, raw)
		}
	}
	post("/sessions", ops.create())
	post("/sessions/"+ops.id+"/changes", ops.seed())
	for i := 0; i < runs; i++ {
		post("/sessions/"+ops.id+"/run", server.RunRequest{Cycles: 10})
		_, w := rawGet(t, cl, ts.URL+server.APIVersion+"/sessions/"+ops.id+"/wm")
		_, c := rawGet(t, cl, ts.URL+server.APIVersion+"/sessions/"+ops.id+"/conflicts")
		wm = append(wm, w)
		conflicts = append(conflicts, c)
	}
	return wm, conflicts
}

// TestClusterFailover is the acceptance scenario: three nodes, a
// session placed by consistent hash and driven through a non-owner
// node, the owner killed abruptly, and the promoted follower's working
// memory and conflict set compared byte for byte against an
// uninterrupted single-node run.
func TestClusterFailover(t *testing.T) {
	c := Start(t, 3, true)
	ops := sessionOps{id: "acct-42"}
	refWM, refConf := reference(t, ops, 2)

	c.MustJSON(0, "POST", "/v1/sessions", ops.create(), nil, http.StatusCreated)
	owner := c.OwnerOf(ops.id)
	if owner < 0 {
		t.Fatal("no node serves the session after create")
	}
	want := cluster.NewRing([]string{"n0", "n1", "n2"}).Owner(ops.id)
	if got := c.Nodes[owner].ID; got != want {
		t.Fatalf("session landed on %s, consistent hash places it on %s", got, want)
	}

	// Drive the session through a node that does NOT own it: the
	// request must be forwarded to the owner transparently.
	driver := (owner + 1) % 3
	c.MustJSON(driver, "POST", "/v1/sessions/"+ops.id+"/changes", ops.seed(), nil, http.StatusOK)
	var run server.RunResult
	c.MustJSON(driver, "POST", "/v1/sessions/"+ops.id+"/run", server.RunRequest{Cycles: 10}, &run, http.StatusOK)
	if run.Fired != 10 {
		t.Fatalf("run fired %d, want 10", run.Fired)
	}

	// Wait until every committed record has reached the followers;
	// shipping is asynchronous, and a crash before the queue drains
	// would legitimately lose the tail.
	c.WaitReplicated(owner, ops.id)

	stBefore := c.Status(owner)
	if len(stBefore.Sessions) != 1 || stBefore.Sessions[0].ID != ops.id {
		t.Fatalf("owner status sessions = %+v", stBefore.Sessions)
	}

	// Make sure both survivors have heard the owner's live claim over
	// heartbeat before the crash — failover must then wait out the
	// full suspect→dead escalation.
	for i := range c.Nodes {
		if i == owner {
			continue
		}
		i := i
		c.WaitFor(5*time.Second, "owner claim propagated", func() bool {
			for _, m := range c.Status(i).Members {
				if m.ID == c.Nodes[owner].ID {
					return m.Sessions >= 1
				}
			}
			return false
		})
	}

	c.Kill(owner)

	// A surviving node must detect the death, promote its standby and
	// serve the session again; until then every reply it gives must
	// tell the client to retry (502 while the dead owner still looks
	// alive, 503 while a copy waits for promotion), never 404.
	cl := c.Client()
	survivor := (owner + 1) % 3
	var wm []byte
	c.WaitFor(10*time.Second, "failover of "+ops.id, func() bool {
		code, body := rawGet(t, cl, c.Nodes[survivor].URL()+"/v1/sessions/"+ops.id+"/wm")
		if code != http.StatusOK {
			var e server.ErrorResponse
			if json.Unmarshal(body, &e) != nil || !e.Retryable {
				t.Fatalf("failover reply %d %s is not retryable", code, body)
			}
			return false
		}
		wm = body
		return true
	})
	_, conf := rawGet(t, cl, c.Nodes[survivor].URL()+"/v1/sessions/"+ops.id+"/conflicts")
	if !bytes.Equal(wm, refWM[0]) {
		t.Fatalf("working memory diverged after failover:\n got %s\nwant %s", wm, refWM[0])
	}
	if !bytes.Equal(conf, refConf[0]) {
		t.Fatalf("conflict set diverged after failover:\n got %s\nwant %s", conf, refConf[0])
	}

	// The dead peer and the failover must be visible on status and
	// /metrics of whichever node promoted (which may since have handed
	// the session to the ring's new first choice).
	promoted := -1
	var st cluster.StatusResponse
	for i := range c.Nodes {
		if i != owner {
			if st = c.Status(i); st.Failovers >= 1 {
				promoted = i
				break
			}
		}
	}
	if promoted < 0 {
		t.Fatal("no survivor reports a failover")
	}
	deadSeen := false
	for _, m := range st.Members {
		if m.ID == c.Nodes[owner].ID && m.State == "dead" {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Fatalf("dead owner not reported in members: %+v", st.Members)
	}
	if v := metricValue(t, cl, c.Nodes[promoted].URL(), "psmd_failovers_total"); v < 1 {
		t.Fatalf("psmd_failovers_total = %v, want >= 1", v)
	}
	if v := metricValue(t, cl, c.Nodes[promoted].URL(), `psmd_cluster_peers{state="dead"}`); v < 1 {
		t.Fatalf(`psmd_cluster_peers{state="dead"} = %v, want >= 1`, v)
	}

	// The promoted session must keep working — and still match the
	// reference after more cycles.
	// Ownership may still move once (to the ring's new first choice),
	// answering 503 meanwhile.
	if err := c.write(survivor, ops.id, 10, false, 10*time.Second); err != nil {
		t.Fatalf("post-failover run: %v", err)
	}
	_, wm2 := rawGet(t, cl, c.Nodes[survivor].URL()+"/v1/sessions/"+ops.id+"/wm")
	if !bytes.Equal(wm2, refWM[1]) {
		t.Fatalf("working memory diverged after post-failover run:\n got %s\nwant %s", wm2, refWM[1])
	}
}

// TestClusterRedirect checks the -forward=false mode: a request landing
// on a non-owner answers 307 with the owner's URL, and a client that
// follows it ends up creating the session on the owner.
func TestClusterRedirect(t *testing.T) {
	c := Start(t, 3, false)
	ring := cluster.NewRing([]string{"n0", "n1", "n2"})

	// Find an ID owned by a node other than n0.
	id, ownerID := "", ""
	for i := 0; i < 100; i++ {
		cand := fmt.Sprintf("redirect-%d", i)
		if o := ring.Owner(cand); o != "n0" {
			id, ownerID = cand, o
			break
		}
	}
	if id == "" {
		t.Fatal("could not find a session ID not owned by n0")
	}

	ops := sessionOps{id: id}
	buf, err := json.Marshal(ops.create())
	if err != nil {
		t.Fatal(err)
	}
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Post(c.Nodes[0].URL()+"/v1/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status = %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	var ownerIdx int
	for i, n := range c.Nodes {
		if n.ID == ownerID {
			ownerIdx = i
		}
	}
	if !strings.HasPrefix(loc, c.Nodes[ownerIdx].URL()) {
		t.Fatalf("Location = %q, want owner %s at %s", loc, ownerID, c.Nodes[ownerIdx].URL())
	}

	// Go's client re-sends the body on 307 (GetBody is set for
	// bytes.Reader bodies), so the default client just works.
	c.MustJSON(0, "POST", "/v1/sessions", ops.create(), nil, http.StatusCreated)
	if got := c.OwnerOf(id); got != ownerIdx {
		t.Fatalf("session on node %d, want %d", got, ownerIdx)
	}

	// Reads on a non-owner redirect too.
	resp, err = noFollow.Get(c.Nodes[0].URL() + "/v1/sessions/" + id + "/wm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ownerIdx != 0 && resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("GET via non-owner = %d, want 307", resp.StatusCode)
	}
}

// TestClusterDrain checks graceful shutdown: draining a node hands its
// live sessions to ring successors with no lost state.
func TestClusterDrain(t *testing.T) {
	c := Start(t, 3, true)

	// Create sessions with server-generated IDs until the target node
	// owns at least one.
	const target = 1
	var moved []string
	for i := 0; i < 30 && len(moved) == 0; i++ {
		var out server.SessionInfo
		c.MustJSON(0, "POST", "/v1/sessions",
			server.CreateSpec{Program: counterSrc, Matcher: "rete"}, &out, http.StatusCreated)
		c.MustJSON(0, "POST", "/v1/sessions/"+out.ID+"/changes", sessionOps{id: out.ID}.seed(), nil, http.StatusOK)
		if c.OwnerOf(out.ID) == target {
			moved = append(moved, out.ID)
		}
	}
	if len(moved) == 0 {
		t.Fatal("no generated session landed on the target node")
	}
	for _, id := range moved {
		c.WaitReplicated(target, id)
	}

	c.Drain(target)

	st := c.Status(target)
	if !st.Draining {
		t.Fatal("status does not report draining")
	}
	if len(st.Sessions) != 0 {
		t.Fatalf("drained node still serves %+v", st.Sessions)
	}
	if st.Handoffs < int64(len(moved)) {
		t.Fatalf("handoffs = %d, want >= %d", st.Handoffs, len(moved))
	}
	cl := c.Client()
	if code, _ := rawGet(t, cl, c.Nodes[target].URL()+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("drained /readyz = %d, want 503", code)
	}

	// Every handed-off session must be live on another node with its
	// seeded WME intact.
	cl2 := c.Client()
	for _, id := range moved {
		c.WaitFor(10*time.Second, "relocation of "+id, func() bool {
			o := c.OwnerOf(id)
			return o >= 0 && o != target
		})
		// The new holder's live claim reaches the other nodes on the
		// next heartbeat round; poll until routing converges.
		var wm []byte
		c.WaitFor(5*time.Second, "routing to relocated "+id, func() bool {
			code, body := rawGet(t, cl2, c.Nodes[(target+1)%3].URL()+"/v1/sessions/"+id+"/wm")
			wm = body
			return code == http.StatusOK
		})
		var wmes []server.WMEInfo
		if err := json.Unmarshal(wm, &wmes); err != nil {
			t.Fatalf("session %s: bad wm %q: %v", id, wm, err)
		}
		if len(wmes) != 1 || wmes[0].Class != "counter" {
			t.Fatalf("session %s lost state across drain: %+v", id, wmes)
		}
	}
}

// TestClusterDrainAlone checks that a node whose peers are all dead
// drains at once instead of waiting out its budget for a successor: no
// peer could take a session before its dead timer clears, and the
// budget is the server shutdown's too. The session stays on the node.
func TestClusterDrainAlone(t *testing.T) {
	c := Start(t, 3, true)
	c.Kill(1)
	c.Kill(2)
	c.WaitFor(5*time.Second, "peers dead", func() bool {
		for _, m := range c.Status(0).Members[1:] {
			if m.State != "dead" {
				return false
			}
		}
		return true
	})
	ops := sessionOps{id: "alone"}
	c.MustJSON(0, "POST", "/v1/sessions", ops.create(), nil, http.StatusCreated)

	start := time.Now()
	c.Drain(0)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("drain with every peer dead took %v", d)
	}
	if got := c.Status(0).Sessions; len(got) != 1 || got[0].ID != ops.id {
		t.Fatalf("drained node serves %+v, want %s", got, ops.id)
	}
}

// TestClusterRejoin checks the stale-rejoin guard: a crashed owner that
// comes back after failover still holds its old live session dir; the
// reconcile loop must demote that stale copy instead of splitting the
// brain, leaving exactly one (fresher) live owner.
func TestClusterRejoin(t *testing.T) {
	c := Start(t, 3, true)
	ops := sessionOps{id: "rejoin-1"}
	c.MustJSON(0, "POST", "/v1/sessions", ops.create(), nil, http.StatusCreated)
	owner := c.OwnerOf(ops.id)
	c.MustJSON(owner, "POST", "/v1/sessions/"+ops.id+"/changes", ops.seed(), nil, http.StatusOK)
	c.MustJSON(owner, "POST", "/v1/sessions/"+ops.id+"/run", server.RunRequest{Cycles: 5}, nil, http.StatusOK)
	c.WaitReplicated(owner, ops.id)

	c.Kill(owner)
	cl := c.Client()
	survivor := (owner + 1) % 3
	c.WaitFor(10*time.Second, "failover of "+ops.id, func() bool {
		code, _ := rawGet(t, cl, c.Nodes[survivor].URL()+"/v1/sessions/"+ops.id+"/wm")
		return code == http.StatusOK
	})
	// Advance past the crashed copy so the survivor is strictly
	// fresher when the old owner rejoins.
	if err := c.write(survivor, ops.id, 5, false, 10*time.Second); err != nil {
		t.Fatalf("post-failover run: %v", err)
	}

	c.Restart(owner)

	// The restarted node reopens its stale dir as a standby and serves
	// nothing until its peers have reported; the session may then hand
	// back to the ring owner — but the FRESH lineage must win wherever
	// it lands, with exactly one live copy.
	c.WaitFor(10*time.Second, "single fresh owner after rejoin", func() bool {
		live := 0
		for _, tn := range c.Nodes {
			if tn.up && tn.srv.HasSession(ops.id) {
				live++
			}
		}
		if live != 1 {
			return false
		}
		holder := c.OwnerOf(ops.id)
		var wm []server.WMEInfo
		if c.JSON(holder, "GET", "/v1/sessions/"+ops.id+"/wm", nil, &wm) != http.StatusOK {
			return false
		}
		// n == 10 is the post-failover state; the crashed copy stopped
		// at n == 5. A stale lineage winning the rejoin would show 5.
		return len(wm) == 1 && wm[0].Attrs["n"] == ops5.Num(10)
	})
}

// TestRestartedOwnerServesNoStaleCopy replays the rejoin window: the
// old owner's on-disk copy predates the promoted owner's acknowledged
// run, so serving it — even for the one heartbeat before the duplicate
// shows — accepts writes on a lineage the cluster has moved past, and
// duplicate resolution then keeps whichever copy ran further. The
// restarted node must hold its copy as a standby instead, so the
// 30-cycle run lands on the promoted owner and all 50 cycles survive.
func TestRestartedOwnerServesNoStaleCopy(t *testing.T) {
	c := Start(t, 3, true)
	ops := sessionOps{id: "stale-owner"}
	c.MustJSON(0, "POST", "/v1/sessions", ops.create(), nil, http.StatusCreated)
	owner := c.OwnerOf(ops.id)
	c.MustJSON(owner, "POST", "/v1/sessions/"+ops.id+"/changes", ops.seed(), nil, http.StatusOK)
	c.MustJSON(owner, "POST", "/v1/sessions/"+ops.id+"/run", server.RunRequest{Cycles: 10}, nil, http.StatusOK)
	c.WaitReplicated(owner, ops.id)
	c.Kill(owner)

	promoted := -1
	c.WaitFor(10*time.Second, "promotion of "+ops.id, func() bool {
		promoted = c.OwnerOf(ops.id)
		return promoted >= 0
	})
	c.MustJSON(promoted, "POST", "/v1/sessions/"+ops.id+"/run", server.RunRequest{Cycles: 10}, nil, http.StatusOK)

	c.Restart(owner)
	if err := c.write(owner, ops.id, 30, false, 10*time.Second); err != nil {
		t.Fatalf("30-cycle run via the restarted node: %v", err)
	}
	var (
		owners []int
		info   server.SessionInfo
		wm     []server.WMEInfo
	)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		owners = c.owners(ops.id)
		if len(owners) == 1 &&
			c.JSON(owners[0], "GET", "/v1/sessions/"+ops.id, nil, &info) == http.StatusOK &&
			c.JSON(owners[0], "GET", "/v1/sessions/"+ops.id+"/wm?class=counter", nil, &wm) == http.StatusOK &&
			info.Cycles == 50 && len(wm) == 1 && wm[0].Attrs["n"] == ops5.Num(50) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("live on %v with %d cycles and %+v; want one owner at 50 cycles, n = 50",
				owners, info.Cycles, wm)
		}
	}
}

// TestClusterCreateMatchesSingleNode holds a cluster node's create to
// the single-node contract: the same strict decode, so the same status
// and error code for every malformed body.
func TestClusterCreateMatchesSingleNode(t *testing.T) {
	single := server.New(server.Config{Shards: 2})
	t.Cleanup(single.Close)
	ts := httptest.NewServer(single.HandlerWith(server.HandlerConfig{DisablePprof: true}))
	t.Cleanup(ts.Close)
	c := Start(t, 3, true)

	prog, err := json.Marshal(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	p := string(prog)
	post := func(base, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s/v1/sessions: %v", base, err)
		}
		defer resp.Body.Close()
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Code
	}
	for _, tc := range []struct{ name, body string }{
		{"numeric id", `{"id": 7, "program": ` + p + `}`},
		{"object id", `{"id": {"a": 1}, "program": ` + p + `}`},
		{"unknown field", `{"program": ` + p + `, "bogus": 1}`},
		{"trailing data", `{"program": ` + p + `} {}`},
		{"9 MiB", `{"program": "` + strings.Repeat(" ", 9<<20) + `"}`},
	} {
		wantStatus, wantCode := post(ts.URL, tc.body)
		gotStatus, gotCode := post(c.Nodes[0].URL(), tc.body)
		if gotStatus != wantStatus || gotCode != wantCode {
			t.Errorf("%s: cluster node answered %d %q, single node %d %q",
				tc.name, gotStatus, gotCode, wantStatus, wantCode)
		}
	}
}

// syncBuffer collects several nodes' log lines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// requestLines counts the request log lines carrying traceID, by node.
func (s *syncBuffer) requestLines(traceID string) map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	for _, line := range strings.Split(s.b.String(), "\n") {
		var rec struct {
			Msg     string `json:"msg"`
			Node    string `json:"node"`
			TraceID string `json:"trace_id"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "request" && rec.TraceID == traceID {
			out[rec.Node]++
		}
	}
	return out
}

// TestClusterRoutesLogged checks that the cluster's replies go through
// the sessions API's wrapper: a 307 to the owning node and a
// replication push each echo X-Request-Id in the envelope the server
// writes, and leave one request log line on the node that answered.
func TestClusterRoutesLogged(t *testing.T) {
	var logs syncBuffer
	c := StartLogging(t, 2, false, &logs)
	ring := cluster.NewRing([]string{"n0", "n1"})
	id := ""
	for i := 0; id == ""; i++ {
		if cand := fmt.Sprintf("logged-%d", i); ring.Owner(cand) == "n1" {
			id = cand
		}
	}
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, tc := range []struct {
		method, path, traceID string
		status                int
		code                  string
	}{
		{"GET", "/v1/sessions/" + id, "probe-redirect", http.StatusTemporaryRedirect, "wrong_node"},
		{"POST", "/v1/internal/replicate/" + id + "/records", "probe-push", http.StatusConflict, "gap"},
	} {
		req, err := http.NewRequest(tc.method, c.Nodes[0].URL()+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", tc.traceID)
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.status || e.Code != tc.code {
			t.Fatalf("%s %s = %d %q, want %d %q", tc.method, tc.path, resp.StatusCode, e.Code, tc.status, tc.code)
		}
		if got := resp.Header.Get("X-Request-Id"); got != tc.traceID {
			t.Fatalf("%s %s echoed X-Request-Id %q, want %q", tc.method, tc.path, got, tc.traceID)
		}
		// The line is written after the reply goes out.
		c.WaitFor(2*time.Second, "request log line for "+tc.traceID, func() bool {
			return logs.requestLines(tc.traceID)["n0"] > 0
		})
		if got := logs.requestLines(tc.traceID); len(got) != 1 || got["n0"] != 1 {
			t.Fatalf("request log lines for %s by node: %v, want one on n0", tc.traceID, got)
		}
	}
}

// TestClusterStatusAndReadyz covers the smaller surface: every node
// reports all members alive, and /readyz tracks the serving state.
func TestClusterStatusAndReadyz(t *testing.T) {
	c := Start(t, 2, true)
	cl := c.Client()
	for i := range c.Nodes {
		c.WaitFor(5*time.Second, "peers alive", func() bool {
			st := c.Status(i)
			if len(st.Members) != 2 {
				return false
			}
			for _, m := range st.Members {
				if m.State != "alive" {
					return false
				}
			}
			return true
		})
		if code, _ := rawGet(t, cl, c.Nodes[i].URL()+"/readyz"); code != http.StatusOK {
			t.Fatalf("node %d /readyz = %d, want 200", i, code)
		}
		if code, _ := rawGet(t, cl, c.Nodes[i].URL()+"/healthz"); code != http.StatusOK {
			t.Fatalf("node %d /healthz = %d, want 200", i, code)
		}
	}
	st := c.Status(0)
	if st.Node != "n0" || st.Replicas != 2 || !st.Forward {
		t.Fatalf("status = %+v", st)
	}
}

// metricValue scrapes one metric line from /metrics.
func metricValue(t *testing.T, cl *http.Client, base, name string) float64 {
	t.Helper()
	code, body := rawGet(t, cl, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
		if err != nil {
			t.Fatalf("metric %s: bad value in %q", name, line)
		}
		return v
	}
	return -1
}

// TestClusterRollingExit is the rolling-restart step the drain flow
// exists for. The exiting owner's listener closes before its handoffs
// run (the real SIGTERM order), so the survivors' membership tables
// still show it alive and owning its session — the handoff recipient
// learns the truth only from the promote request itself. It must keep
// serving continuously through that ghost claim: demoting to it would
// strand the session until the dead timer fires.
func TestClusterRollingExit(t *testing.T) {
	c := Start(t, 3, true)
	defer c.Close()
	ops := sessionOps{id: "rolling-7"}

	c.MustJSON(0, "POST", "/v1/sessions", ops.create(), nil, http.StatusCreated)
	owner := c.OwnerOf(ops.id)
	if owner < 0 {
		t.Fatal("no node serves the session after create")
	}
	c.MustJSON(owner, "POST", "/v1/sessions/"+ops.id+"/changes", ops.seed(), nil, http.StatusOK)
	c.MustJSON(owner, "POST", "/v1/sessions/"+ops.id+"/run", server.RunRequest{Cycles: 5}, nil, http.StatusOK)
	c.WaitReplicated(owner, ops.id)

	c.Exit(owner)

	rec := c.OwnerOf(ops.id)
	if rec < 0 || rec == owner {
		t.Fatalf("no survivor adopted the session (owner %d, got %d)", owner, rec)
	}
	// Continuous service for 2x the dead timer: long enough that the
	// old failure mode (demote to the ghost claim, re-promote only
	// once the exited node ages dead) cannot hide inside the window.
	cl := c.Client()
	deadline := time.Now().Add(2 * deadAfter)
	for time.Now().Before(deadline) {
		code, body := rawGet(t, cl, c.Nodes[rec].URL()+"/v1/sessions/"+ops.id+"/wm")
		if code != http.StatusOK {
			t.Fatalf("serving gap on recipient %s: status %d body %s", c.Nodes[rec].ID, code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Status(rec).Failovers; got != 0 {
		t.Fatalf("recipient recovered via failover (%d promotions), want adoption only", got)
	}
	// The adopted session still runs from exactly where it left off.
	var run server.RunResult
	c.MustJSON(rec, "POST", "/v1/sessions/"+ops.id+"/run", server.RunRequest{Cycles: 5}, &run, http.StatusOK)
	if run.Fired != 5 {
		t.Fatalf("post-exit run fired %d cycles, want 5: %+v", run.Fired, run)
	}
	var wm []server.WMEInfo
	c.MustJSON(rec, "GET", "/v1/sessions/"+ops.id+"/wm", nil, &wm, http.StatusOK)
	if len(wm) != 1 || wm[0].Attrs["n"] != ops5.Num(10) {
		t.Fatalf("post-exit working memory: %+v", wm)
	}
}
