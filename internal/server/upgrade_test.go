package server_test

// Data directories written by the psmd of the commit before WAL
// records and snapshots became one binary format (JSON records, a
// loader that sniffed three snapshot dialects). testdata/parent_clean_stop
// is what its SIGTERM leaves — the snapshot this version also writes,
// plus an empty WAL — with the /v1 replies it gave just before in
// parent_clean_stop.golden; testdata/parent_killed is what its kill -9
// leaves: an initial snapshot and a tail of JSON records.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

// copyDataDir copies a checked-in data directory somewhere writable.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		rel, _ := filepath.Rel(src, path)
		if err != nil || rel == "." {
			return err
		}
		if d.IsDir() {
			return os.Mkdir(filepath.Join(dst, rel), 0o777)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func (c *client) getBody(path string) []byte {
	c.t.Helper()
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		c.t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
	}
	return body
}

// TestRecoverParentCleanStop is the upgrade path: the previous version,
// stopped cleanly, leaves a directory this version reads as it stands,
// and the session answers /wm, /conflicts and its counters byte for
// byte as it did before the stop.
func TestRecoverParentCleanStop(t *testing.T) {
	dataDir := copyDataDir(t, filepath.Join("testdata", "parent_clean_stop"))
	walPath := filepath.Join(dataDir, "702d636c65616e", "wal.log")
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Fatalf("a clean stop leaves a zero-length wal.log; found %v, err %v", fi, err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "parent_clean_stop.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, reply := range strings.Split(string(golden), "### GET ")[1:] {
		path, body, _ := strings.Cut(reply, "\n")
		want[strings.TrimPrefix(path, server.APIVersion)] = body
	}

	_, c := newTestServer(t, server.Config{Shards: 1, DataDir: dataDir})
	for _, path := range []string{"/sessions/p-clean/wm", "/sessions/p-clean/conflicts"} {
		if got := string(c.getBody(path)); got != want[path] {
			t.Errorf("GET %s after the upgrade:\n got %s\nwant %s", path, got, want[path])
		}
	}
	// The counters, less what describes one incarnation of the process
	// and the live WAL tail, which the stop's snapshot absorbed.
	var before, after server.SessionInfo
	if err := json.Unmarshal([]byte(want["/sessions/p-clean"]), &before); err != nil {
		t.Fatal(err)
	}
	c.must("GET", "/sessions/p-clean", nil, &after, http.StatusOK)
	if !after.Recovered || after.ReplayedRecords != 0 || after.SnapshotSeq != before.WALSeq {
		t.Fatalf("recovered %v replaying %d records from snapshot %d; want a pure snapshot load at %d",
			after.Recovered, after.ReplayedRecords, after.SnapshotSeq, before.WALSeq)
	}
	for _, info := range []*server.SessionInfo{&before, &after} {
		info.Requests, info.AgeSeconds, info.TraceSpans, info.TraceTotal, info.LastCycleSeconds = 0, 0, 0, 0, 0
		info.Recovered, info.SnapshotSeq, info.WALRecords, info.WALBytes = false, 0, 0, 0
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("session counters after the upgrade:\n got %+v\nwant %+v", after, before)
	}
	// And it is a live session.
	c.must("POST", "/sessions/p-clean/run", server.RunRequest{}, nil, http.StatusOK)
}

// TestServerRefusesParentWALTail is the path the upgrade notes warn
// about: the previous version was killed, not stopped, so acknowledged
// batches sit in JSON records this version does not read. The session
// must be refused loudly — with the offset and the reason — and its
// files left byte-identical for the version that can read them, not
// "recovered" to its initial snapshot with the WAL cut to nothing.
func TestServerRefusesParentWALTail(t *testing.T) {
	dataDir := copyDataDir(t, filepath.Join("testdata", "parent_killed"))
	sessDir := filepath.Join(dataDir, "702d6b696c6c6564")
	hash := func() (sums [2][sha256.Size]byte) {
		for i, name := range []string{"wal.log", "snapshot.json"} {
			raw, err := os.ReadFile(filepath.Join(sessDir, name))
			if err != nil {
				t.Fatal(err)
			}
			sums[i] = sha256.Sum256(raw)
		}
		return sums
	}
	before := hash()

	var logged bytes.Buffer
	_, c := newTestServer(t, server.Config{
		Shards: 1, DataDir: dataDir, Logger: slog.New(slog.NewTextHandler(&logged, nil)),
	})
	recoveryLog := logged.String() // recovery ran inside New; requests log later, from their own goroutines
	c.must("GET", "/sessions/p-killed", nil, nil, http.StatusNotFound)
	if hash() != before {
		t.Fatal("refusing the session changed its files")
	}
	for _, want := range []string{"durable recovery failed", "wal.log", "offset 0", "not a version-1 WAL record"} {
		if !strings.Contains(recoveryLog, want) {
			t.Errorf("recovery log lacks %q:\n%s", want, recoveryLog)
		}
	}
	// The directory still owns the ID: a create must not overwrite it.
	if status := c.do("POST", "/sessions", server.CreateSpec{ID: "p-killed", Program: counterSrc}, nil); status == http.StatusCreated {
		t.Fatal("created a session over a refused durable directory")
	}
	if hash() != before {
		t.Fatal("the refused create changed the session's files")
	}
}
