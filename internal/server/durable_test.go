package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/server"
)

// crashableServer starts a durable server whose HTTP listener can be
// dropped without shutting the server down — the moral equivalent of
// kill -9 for recovery tests (fsync=always: every acknowledged record
// is already on disk).
func crashableServer(t *testing.T, cfg server.Config) (*client, func()) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	return newClient(t, ts), ts.Close
}

// TestServerCrashRecovery kills a durable server mid-workload and
// checks a fresh server on the same data directory serves the same
// sessions with identical working memory, conflict sets and counters.
func TestServerCrashRecovery(t *testing.T) {
	dataDir := t.TempDir()
	cfg := server.Config{Shards: 2, DataDir: dataDir}

	// Life 1: one named and one auto-ID session, run partway.
	c1, crash := crashableServer(t, cfg)
	var sess, auto server.SessionInfo
	c1.must("POST", "/sessions", server.CreateSpec{
		ID: "counter", Program: counterSrc, Matcher: "rete",
	}, &sess, http.StatusCreated)
	if !sess.Durable {
		t.Fatalf("session on a durable server not durable: %+v", sess)
	}
	c1.must("POST", "/sessions", server.CreateSpec{Program: counterSrc}, &auto, http.StatusCreated)
	c1.must("POST", "/sessions/counter/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 5.0)},
	}}, nil, http.StatusOK)
	c1.must("POST", "/sessions/counter/run", server.RunRequest{Cycles: 3}, nil, http.StatusOK)

	var before server.SessionInfo
	var beforeWM []server.WMEInfo
	var beforeCS []server.InstInfo
	c1.must("GET", "/sessions/counter", nil, &before, http.StatusOK)
	c1.must("GET", "/sessions/counter/wm", nil, &beforeWM, http.StatusOK)
	c1.must("GET", "/sessions/counter/conflicts", nil, &beforeCS, http.StatusOK)
	if before.WALSeq == 0 {
		t.Fatalf("no WAL records before crash: %+v", before)
	}
	crash()

	// Life 2: recovery must reproduce both sessions exactly.
	_, c2 := newTestServer(t, cfg)
	var list []server.SessionInfo
	c2.must("GET", "/sessions", nil, &list, http.StatusOK)
	if len(list) != 2 {
		t.Fatalf("recovered %d sessions, want 2: %+v", len(list), list)
	}
	var after server.SessionInfo
	var afterWM []server.WMEInfo
	var afterCS []server.InstInfo
	c2.must("GET", "/sessions/counter", nil, &after, http.StatusOK)
	c2.must("GET", "/sessions/counter/wm", nil, &afterWM, http.StatusOK)
	c2.must("GET", "/sessions/counter/conflicts", nil, &afterCS, http.StatusOK)
	if !after.Recovered || after.ReplayedRecords == 0 {
		t.Fatalf("session not marked recovered: %+v", after)
	}
	if after.Cycles != before.Cycles || after.Fired != before.Fired ||
		after.WMSize != before.WMSize || after.ConflictSize != before.ConflictSize ||
		after.TotalChanges != before.TotalChanges || after.Productions != before.Productions {
		t.Fatalf("recovered stats diverged:\nbefore %+v\nafter  %+v", before, after)
	}
	if !reflect.DeepEqual(afterWM, beforeWM) {
		t.Fatalf("recovered WM diverged:\nbefore %+v\nafter  %+v", beforeWM, afterWM)
	}
	if !reflect.DeepEqual(afterCS, beforeCS) {
		t.Fatalf("recovered conflict set diverged:\nbefore %+v\nafter  %+v", beforeCS, afterCS)
	}

	resp, err := http.Get(c2.raw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "psmd_recovered_sessions 2") {
		t.Errorf("/metrics missing psmd_recovered_sessions 2:\n%s", raw)
	}

	// Auto-assigned IDs must not collide with recovered ones.
	var auto2 server.SessionInfo
	c2.must("POST", "/sessions", server.CreateSpec{Program: counterSrc}, &auto2, http.StatusCreated)
	if auto2.ID == auto.ID {
		t.Fatalf("new auto ID %q collides with recovered session", auto2.ID)
	}

	// The forced checkpoint endpoint resets the WAL tail.
	var snap server.SnapshotResult
	c2.must("POST", "/sessions/counter/snapshot", nil, &snap, http.StatusOK)
	if snap.SessionID != "counter" || snap.Seq != after.WALSeq || snap.WMEs != after.WMSize {
		t.Fatalf("snapshot response %+v (session stats %+v)", snap, after)
	}
	var checked server.SessionInfo
	c2.must("GET", "/sessions/counter", nil, &checked, http.StatusOK)
	if checked.SnapshotSeq != snap.Seq || checked.WALRecords != 0 {
		t.Fatalf("stats after checkpoint: %+v", checked)
	}

	// The recovered session still runs to the same halt as an
	// uninterrupted one (6 cycles total for limit 5).
	var run server.RunResult
	c2.must("POST", "/sessions/counter/run", server.RunRequest{Cycles: 100}, &run, http.StatusOK)
	var final server.SessionInfo
	c2.must("GET", "/sessions/counter", nil, &final, http.StatusOK)
	if !final.Halted || final.Cycles != 6 || final.Fired != 6 {
		t.Fatalf("resumed session final stats: %+v", final)
	}

	// Deleting a session removes its durable state for good.
	c2.must("DELETE", "/sessions/"+auto.ID, nil, nil, http.StatusNoContent)
	dirs, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 { // counter + auto2
		t.Fatalf("%d session dirs after delete, want 2", len(dirs))
	}
}

// TestServerGracefulShutdownSnapshots checks Close drains every session
// with a final snapshot, so the next start replays no WAL records.
func TestServerGracefulShutdownSnapshots(t *testing.T) {
	dataDir := t.TempDir()
	cfg := server.Config{Shards: 1, DataDir: dataDir}

	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	c := newClient(t, ts)
	c.must("POST", "/sessions", server.CreateSpec{ID: "counter", Program: counterSrc}, nil, http.StatusCreated)
	c.must("POST", "/sessions/counter/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 5.0)},
	}}, nil, http.StatusOK)
	c.must("POST", "/sessions/counter/run", server.RunRequest{Cycles: 2}, nil, http.StatusOK)
	var before server.SessionInfo
	c.must("GET", "/sessions/counter", nil, &before, http.StatusOK)
	ts.Close()
	srv.Close() // graceful: final snapshot per session

	_, c2 := newTestServer(t, cfg)
	var after server.SessionInfo
	c2.must("GET", "/sessions/counter", nil, &after, http.StatusOK)
	if !after.Recovered || after.ReplayedRecords != 0 {
		t.Fatalf("graceful restart should recover from snapshot alone: %+v", after)
	}
	if after.Cycles != before.Cycles || after.WMSize != before.WMSize ||
		after.ConflictSize != before.ConflictSize {
		t.Fatalf("recovered stats diverged:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestSnapshotRacesApply forces checkpoints while runs keep appending
// WAL records on the same session. The snapshot path swaps the WAL
// file under a live writer, so this is the test the -race build is
// for: every request must succeed, and a crash afterwards must recover
// exactly the final acknowledged state — a torn checkpoint would
// silently drop cycles.
func TestSnapshotRacesApply(t *testing.T) {
	dataDir := t.TempDir()
	cfg := server.Config{Shards: 2, DataDir: dataDir}
	c, crash := crashableServer(t, cfg)
	c.must("POST", "/sessions", server.CreateSpec{ID: "counter", Program: counterSrc}, nil, http.StatusCreated)
	c.must("POST", "/sessions/counter/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 1000000.0)},
	}}, nil, http.StatusOK)

	const rounds = 30
	errs := make(chan string, 2*rounds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // runner: five WAL records per request
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Post(c.base+"/sessions/counter/run", "application/json",
				strings.NewReader(`{"cycles":5}`))
			if err != nil {
				errs <- err.Error()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("run %d: status %d", i, resp.StatusCode)
			}
		}
	}()
	go func() { // checkpointer: truncates the WAL tail under the runner
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Post(c.base+"/sessions/counter/snapshot", "application/json", nil)
			if err != nil {
				errs <- err.Error()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("snapshot %d: status %d", i, resp.StatusCode)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if t.Failed() {
		t.FailNow()
	}

	var before server.SessionInfo
	var beforeWM []server.WMEInfo
	c.must("GET", "/sessions/counter", nil, &before, http.StatusOK)
	c.must("GET", "/sessions/counter/wm", nil, &beforeWM, http.StatusOK)
	if before.Cycles != 5*rounds {
		t.Fatalf("cycles = %d, want %d: %+v", before.Cycles, 5*rounds, before)
	}
	crash()

	_, c2 := newTestServer(t, cfg)
	var after server.SessionInfo
	var afterWM []server.WMEInfo
	c2.must("GET", "/sessions/counter", nil, &after, http.StatusOK)
	c2.must("GET", "/sessions/counter/wm", nil, &afterWM, http.StatusOK)
	if after.Cycles != before.Cycles || after.WMSize != before.WMSize ||
		after.ConflictSize != before.ConflictSize {
		t.Fatalf("recovery after snapshot/apply race diverged:\nbefore %+v\nafter  %+v", before, after)
	}
	if !reflect.DeepEqual(afterWM, beforeWM) {
		t.Fatalf("recovered WM diverged:\nbefore %+v\nafter  %+v", beforeWM, afterWM)
	}
}

// TestReadyzFlipsWhileDraining checks the /healthz vs /readyz split:
// a draining server is still alive (healthz 200) but no longer willing
// (readyz 503), which is what load balancers key off during rollouts.
func TestReadyzFlipsWhileDraining(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Shards: 1})
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(c.raw + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d before drain", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", got)
	}
	if !srv.Ready() {
		t.Fatal("Ready() = false on a serving server")
	}
	srv.SetDraining()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d while draining, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d while draining, want 200 (still alive)", got)
	}
	if srv.Ready() {
		t.Fatal("Ready() = true while draining")
	}
}

// TestServerRecoversTornWAL cuts the WAL mid-record before restart; the
// session must come back at the last intact batch, not fail.
func TestServerRecoversTornWAL(t *testing.T) {
	dataDir := t.TempDir()
	cfg := server.Config{Shards: 1, DataDir: dataDir}

	c1, crash := crashableServer(t, cfg)
	c1.must("POST", "/sessions", server.CreateSpec{ID: "counter", Program: counterSrc}, nil, http.StatusCreated)
	c1.must("POST", "/sessions/counter/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 5.0)},
	}}, nil, http.StatusOK)
	var beforeCut server.SessionInfo
	c1.must("GET", "/sessions/counter", nil, &beforeCut, http.StatusOK)
	c1.must("POST", "/sessions/counter/run", server.RunRequest{Cycles: 1}, nil, http.StatusOK)
	crash()

	// Tear the tail of the single session's WAL: the run's record is cut
	// mid-frame, as if the crash hit during that write.
	dirs, err := os.ReadDir(dataDir)
	if err != nil || len(dirs) != 1 {
		t.Fatalf("session dirs: %v err=%v", dirs, err)
	}
	walPath := filepath.Join(dataDir, dirs[0].Name(), "wal.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, cfg)
	var after server.SessionInfo
	c2.must("GET", "/sessions/counter", nil, &after, http.StatusOK)
	if !after.Recovered {
		t.Fatalf("session not recovered: %+v", after)
	}
	if after.Cycles != beforeCut.Cycles || after.WMSize != beforeCut.WMSize {
		t.Fatalf("torn-WAL recovery should land on the pre-run state:\nwant %+v\ngot  %+v", beforeCut, after)
	}
	// The lost cycle simply re-executes.
	var run server.RunResult
	c2.must("POST", "/sessions/counter/run", server.RunRequest{Cycles: 100}, &run, http.StatusOK)
	if !run.Halted {
		t.Fatalf("resumed run did not halt: %+v", run)
	}
}

// TestComputeOverflowLeavesSessionDurable: a product past float64's
// range used to put +Inf into working memory, after which /wm answered
// 200 with an error body and the WAL, unable to encode the record,
// stopped recording while writes kept answering 200. The firing now
// fails like a division by zero and nothing unencodable is stored.
func TestComputeOverflowLeavesSessionDurable(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1, DataDir: t.TempDir()})
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "big", Program: `(p big (a ^v <x>) --> (make b ^v (compute <x> * 1e308)))`,
	}, nil, http.StatusCreated)
	assert := server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "a", Attrs: attrs("v", 1e308)},
	}}
	c.must("POST", "/sessions/big/changes", assert, nil, http.StatusOK)
	c.must("POST", "/sessions/big/run", server.RunRequest{}, nil, http.StatusInternalServerError)

	var wm []server.WMEInfo
	c.must("GET", "/sessions/big/wm", nil, &wm, http.StatusOK)
	if len(wm) != 1 || wm[0].Class != "a" {
		t.Errorf("working memory after the failed firing = %+v, want the one asserted element", wm)
	}
	c.must("POST", "/sessions/big/changes", assert, nil, http.StatusOK)
	var info server.SessionInfo
	c.must("GET", "/sessions/big", nil, &info, http.StatusOK)
	if info.WALError != "" || info.WALSeq != 2 {
		t.Errorf("wal_error = %q, wal_seq = %d; want both asserts logged and no error", info.WALError, info.WALSeq)
	}
}

// TestRecoveryFinishesInterruptedTick kills the server between the two
// WAL records of one cycle — its firing batch and its expiry batch — by
// cutting the second from the log. The recovered session must expire
// the due event at once, as the interrupted cycle would have, and serve
// the uninterrupted run's working memory, conflict set and counters.
func TestRecoveryFinishesInterruptedTick(t *testing.T) {
	dataDir := t.TempDir()
	cfg := server.Config{Shards: 1, DataDir: dataDir}
	c1, crash := crashableServer(t, cfg)
	c1.must("POST", "/sessions", server.CreateSpec{ID: "tick", Program: `
(p fire (go) --> (remove 1))
(p watch (ev ^k <k>) -(go) --> (remove 1))
`}, nil, http.StatusCreated)
	// One batch: ev (due at tick 1) and go. Cycle 1 fires `fire`, logs
	// that, ticks the clock to 1 and logs ev's expiry; `watch`, which
	// the firing enabled, leaves the conflict set with ev.
	resp := c1.postStream("tick", []byte(`{"class":"ev","attrs":{"k":1},"ttl":1}`+"\n"+`{"class":"go"}`))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	var want server.SessionInfo
	var wantWM []server.WMEInfo
	var wantCS []server.InstInfo
	c1.must("GET", "/sessions/tick", nil, &want, http.StatusOK)
	c1.must("GET", "/sessions/tick/wm", nil, &wantWM, http.StatusOK)
	c1.must("GET", "/sessions/tick/conflicts", nil, &wantCS, http.StatusOK)
	if want.Cycles != 1 || want.Expired != 1 || want.Clock != 1 || want.WALSeq != 3 {
		t.Fatalf("uninterrupted run: %+v, want 1 cycle, 1 expiry, clock 1, 3 WAL records", want)
	}
	crash()

	dirs, err := os.ReadDir(dataDir)
	if err != nil || len(dirs) != 1 {
		t.Fatalf("session dirs: %v err=%v", dirs, err)
	}
	walPath := filepath.Join(dataDir, dirs[0].Name(), "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	for rd := bytes.NewReader(data); ; ends = append(ends, len(data)-rd.Len()) {
		if _, err := durable.DecodeFrame(rd); err != nil {
			break
		}
	}
	if len(ends) != 3 {
		t.Fatalf("WAL holds %d records, want 3", len(ends))
	}
	if err := os.Truncate(walPath, int64(ends[1])); err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, cfg)
	var got server.SessionInfo
	var gotWM []server.WMEInfo
	var gotCS []server.InstInfo
	c2.must("GET", "/sessions/tick", nil, &got, http.StatusOK)
	c2.must("GET", "/sessions/tick/wm", nil, &gotWM, http.StatusOK)
	c2.must("GET", "/sessions/tick/conflicts", nil, &gotCS, http.StatusOK)
	if !got.Recovered || got.Expired != want.Expired || got.Clock != want.Clock || got.TotalChanges != want.TotalChanges ||
		got.PendingExpiries != want.PendingExpiries || got.WALSeq != want.WALSeq {
		t.Fatalf("recovered session:\n got  %+v\n want %+v", got, want)
	}
	if !reflect.DeepEqual(gotWM, wantWM) {
		t.Fatalf("recovered WM:\n got  %+v\n want %+v", gotWM, wantWM)
	}
	if !reflect.DeepEqual(gotCS, wantCS) {
		t.Fatalf("recovered conflict set:\n got  %+v\n want %+v", gotCS, wantCS)
	}
}
