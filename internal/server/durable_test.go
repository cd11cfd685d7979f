package server_test

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
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

// TestRecoveredWideAutoIDNotReused reopens a durable server holding a
// client-chosen ID in the server-assigned form but wider than six
// digits: the next server-assigned ID must follow it, not collide with
// it.
func TestRecoveredWideAutoIDNotReused(t *testing.T) {
	cfg := server.Config{Shards: 1, DataDir: t.TempDir()}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	newClient(t, ts).must("POST", "/sessions", server.CreateSpec{
		ID: "s-1234567", Program: counterSrc,
	}, nil, http.StatusCreated)
	ts.Close()
	srv.Close()

	_, c := newTestServer(t, cfg)
	var auto server.SessionInfo
	c.must("POST", "/sessions", server.CreateSpec{Program: counterSrc}, &auto, http.StatusCreated)
	if auto.ID != "s-1234568" {
		t.Fatalf("server-assigned ID after recovering s-1234567 = %q, want s-1234568", auto.ID)
	}
}

// TestSkippedSessionIDNotReused: a session whose snapshot no longer
// decodes is skipped at recovery, but its directory keeps the manifest,
// so the next server-assigned ID must not be its ID.
func TestSkippedSessionIDNotReused(t *testing.T) {
	dataDir := t.TempDir()
	cfg := server.Config{Shards: 1, DataDir: dataDir}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	var first server.SessionInfo
	newClient(t, ts).must("POST", "/sessions", server.CreateSpec{Program: counterSrc}, &first, http.StatusCreated)
	ts.Close()
	srv.Close()
	dirs, err := os.ReadDir(dataDir)
	if err != nil || len(dirs) != 1 {
		t.Fatalf("session dirs: %v err=%v", dirs, err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, dirs[0].Name(), "snapshot.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, cfg)
	c.must("GET", "/sessions/"+first.ID, nil, nil, http.StatusNotFound)
	var next server.SessionInfo
	c.must("POST", "/sessions", server.CreateSpec{Program: counterSrc}, &next, http.StatusCreated)
	if next.ID == first.ID {
		t.Fatalf("server-assigned ID %q reused the skipped session's", next.ID)
	}
}

// TestRecoverySkipsUnservedMatcher: psmd no longer serves TREAT or the
// full-state matcher. A data directory from an earlier psmd holding
// such sessions recovers every other session, logs each skipped one
// with its matcher, and leaves the skipped directories as they were.
func TestRecoverySkipsUnservedMatcher(t *testing.T) {
	dataDir := t.TempDir()
	cfg := server.Config{Shards: 2, DataDir: dataDir}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	c1 := newClient(t, ts)
	for _, id := range []string{"keep", "old-treat", "old-full-state"} {
		c1.must("POST", "/sessions", server.CreateSpec{ID: id, Program: counterSrc, Matcher: "rete"}, nil, http.StatusCreated)
		c1.must("POST", "/sessions/"+id+"/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
			{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 5.0)},
		}}, nil, http.StatusOK)
	}
	ts.Close()
	srv.Close()

	// Rewrite two manifests to the matchers an earlier psmd served.
	retired := map[string]string{"old-treat": "treat", "old-full-state": "full-state"}
	before := map[string]map[string]string{}
	for id, matcher := range retired {
		dir := filepath.Join(dataDir, fmt.Sprintf("%x", id))
		path := filepath.Join(dir, "manifest.json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := bytes.Replace(raw, []byte(`"Matcher":"rete"`), []byte(`"Matcher":"`+matcher+`"`), 1)
		if bytes.Equal(edited, raw) {
			t.Fatalf("manifest %s names no rete matcher: %s", path, raw)
		}
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		before[id] = readDirFiles(t, dir)
	}

	var logs bytes.Buffer
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	srv2 := server.New(cfg)
	ts2 := httptest.NewServer(srv2.Handler())
	c2 := newClient(t, ts2)
	var kept server.SessionInfo
	c2.must("GET", "/sessions/keep", nil, &kept, http.StatusOK)
	if !kept.Recovered || kept.WMSize != 1 {
		t.Fatalf("keep not recovered: %+v", kept)
	}
	for id, matcher := range retired {
		c2.must("GET", "/sessions/"+id, nil, nil, http.StatusNotFound)
		c2.must("POST", "/sessions", server.CreateSpec{ID: id + "-again", Program: counterSrc, Matcher: matcher}, nil, http.StatusBadRequest)
	}
	ts2.Close()
	srv2.Close()

	for id, matcher := range retired {
		if want := fmt.Sprintf("session=%s matcher=%s", id, matcher); !strings.Contains(logs.String(), want) {
			t.Errorf("recovery log has no %q:\n%s", want, logs.String())
		}
		dir := filepath.Join(dataDir, fmt.Sprintf("%x", id))
		if after := readDirFiles(t, dir); !reflect.DeepEqual(after, before[id]) {
			t.Errorf("skipped directory %s changed", dir)
		}
	}
}

// readDirFiles returns the contents of every file in dir by name.
func readDirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
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
	// Three records: the two asserts and, between them, the failed
	// cycle's refraction mark.
	if info.WALError != "" || info.WALSeq != 3 {
		t.Errorf("wal_error = %q, wal_seq = %d; want both asserts and the failed cycle logged and no error", info.WALError, info.WALSeq)
	}
}

// TestFailedRunMarksSurviveRecovery: a firing whose act phase fails
// commits none of its changes, but Select has already marked its
// instantiation fired. The WAL must carry that mark, or a recovered
// session fires the instantiation again where the uninterrupted one
// quiesces.
func TestFailedRunMarksSurviveRecovery(t *testing.T) {
	const prog = `(p bad (a ^v <s>) --> (make b ^w (compute <s> + 1)))`
	assert := server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "a", Attrs: attrs("v", "sym")},
	}}
	type runReply struct {
		Status int
		Result server.RunResult
	}
	// failedRun creates the session, asserts and runs into the failing
	// firing; nextRun runs again.
	failedRun := func(c *client) {
		c.must("POST", "/sessions", server.CreateSpec{ID: "bad", Program: prog}, nil, http.StatusCreated)
		c.must("POST", "/sessions/bad/changes", assert, nil, http.StatusOK)
		c.must("POST", "/sessions/bad/run", server.RunRequest{}, nil, http.StatusInternalServerError)
	}
	nextRun := func(c *client) (cs []server.InstInfo, run runReply) {
		c.must("GET", "/sessions/bad/conflicts", nil, &cs, http.StatusOK)
		run.Status = c.do("POST", "/sessions/bad/run", server.RunRequest{}, &run.Result)
		return cs, run
	}

	_, ref := newTestServer(t, server.Config{Shards: 1, DataDir: t.TempDir()})
	failedRun(ref)
	wantCS, wantRun := nextRun(ref)
	if wantRun.Status != http.StatusOK || !wantRun.Result.Quiesced || wantRun.Result.Fired != 0 {
		t.Fatalf("uninterrupted run after the failed firing: %+v, want a quiescent 200", wantRun)
	}

	cfg := server.Config{Shards: 1, DataDir: t.TempDir()}
	c1, crash := crashableServer(t, cfg)
	failedRun(c1)
	crash()
	_, c2 := newTestServer(t, cfg)
	gotCS, gotRun := nextRun(c2)
	if !reflect.DeepEqual(gotCS, wantCS) {
		t.Errorf("recovered conflict set:\n got  %+v\n want %+v", gotCS, wantCS)
	}
	if gotRun != wantRun {
		t.Errorf("recovered session's next run: %+v, want %+v", gotRun, wantRun)
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
