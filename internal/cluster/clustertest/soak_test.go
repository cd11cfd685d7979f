package clustertest

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// TestClusterStreamSoak is the nightly soak: continuous fraud-event
// ingest against a three-node cluster with abrupt owner kills, standby
// promotion and rejoin happening mid-stream. Each batch retries through
// failover windows (connection drops, 404 while the standby promotes,
// 429 backpressure); the run fails if a batch cannot land within its
// retry budget or the cluster stops serving the session. A short run
// (3s, a single kill/promote round) executes on every `go test`; the
// nightly workflow stretches it via SOAK_DURATION=10m under -race. On
// failure, goroutine dumps plus per-node loss tables and metrics land
// in $SOAK_ARTIFACTS for upload.
func TestClusterStreamSoak(t *testing.T) {
	duration := 3 * time.Second
	if v := os.Getenv("SOAK_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad SOAK_DURATION %q: %v", v, err)
		}
		duration = d
	}
	const id = "soak-fraud"
	c := Start(t, 3, true)
	defer dumpSoakArtifacts(t, c, id)

	c.MustJSON(0, "POST", "/v1/sessions",
		server.CreateSpec{ID: id, Program: workload.FraudRules, Matcher: "parallel-rete", Workers: 2},
		nil, http.StatusCreated)

	cl := c.Client()
	deadline := time.Now().Add(duration)
	killEvery := duration / 4
	nextKill := time.Now().Add(killEvery)
	var (
		batchNum  int64
		applied   int
		lastClock int64
		killed    = -1 // node awaiting restart
		kills     int
	)
	for time.Now().Before(deadline) {
		// Fresh deterministic batch with globally advancing timestamps
		// and event IDs, so windows keep sliding and joins stay sane.
		evs := workload.FraudEvents(workload.FraudParams{
			Cards: 30, Events: 200, Window: 20, Seed: batchNum,
		})
		for i := range evs {
			evs[i].TS += batchNum * 60
			evs[i].Attrs["id"] = evs[i].Attrs["id"].(float64) + float64(batchNum)*1000
		}
		body := workload.NDJSON(evs)
		batchNum++

		sent := false
		for try := 0; try < 500 && !sent; try++ {
			owner := c.OwnerOf(id)
			if owner < 0 { // failover in progress
				time.Sleep(10 * time.Millisecond)
				continue
			}
			code, res := streamTo(t, cl, c.Nodes[owner].URL(), id, body)
			switch code {
			case http.StatusOK:
				if res.Clock < lastClock {
					t.Fatalf("batch %d: clock went backward %d -> %d without a kill",
						batchNum, lastClock, res.Clock)
				}
				lastClock = res.Clock
				applied += res.Events
				sent = true
			case http.StatusTooManyRequests:
				time.Sleep(20 * time.Millisecond) // backpressure: retry the batch
			default: // 0 (conn dropped), 404/503 during promotion
				time.Sleep(20 * time.Millisecond)
			}
		}
		if !sent {
			t.Fatalf("batch %d never applied within its retry budget", batchNum)
		}

		if time.Now().After(nextKill) {
			nextKill = time.Now().Add(killEvery)
			if killed >= 0 { // rejoin the previous victim first
				c.Restart(killed)
				killed = -1
			}
			if owner := c.OwnerOf(id); owner >= 0 {
				c.Kill(owner)
				killed = owner
				kills++
				// An abrupt kill may lose the unreplicated tail; the
				// promoted copy is allowed to restart behind.
				lastClock = 0
				c.WaitFor(10*time.Second, "promotion after kill", func() bool {
					return c.OwnerOf(id) >= 0
				})
			}
		}
	}
	if killed >= 0 {
		c.Restart(killed)
	}
	if kills == 0 {
		t.Error("soak finished without a kill/promote round — duration too short")
	}

	// The node restarted last recovers its stale copy of the session and
	// holds it until its first heartbeat learns of the promoted owner and
	// demotes it, so for that long OwnerOf can name a node that answers
	// 404 a moment later: resolve the owner afresh for every attempt.
	var info server.SessionInfo
	c.WaitFor(10*time.Second, "a live owner answering at soak end", func() bool {
		owner := c.OwnerOf(id)
		return owner >= 0 && c.JSON(owner, "GET", "/v1/sessions/"+id, nil, &info) == http.StatusOK
	})
	if info.Clock == 0 || info.Expired == 0 {
		t.Errorf("soak end state never exercised expiry: clock=%d expired=%d", info.Clock, info.Expired)
	}
	t.Logf("soak: %d batches, %d events applied, %d kills, clock %d, expired %d, wm %d",
		batchNum, applied, kills, info.Clock, info.Expired, info.WMSize)
}

// dumpSoakArtifacts writes failure diagnostics — a full goroutine dump
// plus each live node's /metrics and the soak session's loss table —
// into $SOAK_ARTIFACTS, where the nightly workflow picks them up.
func dumpSoakArtifacts(t *testing.T, c *Cluster, id string) {
	dir := os.Getenv("SOAK_ARTIFACTS")
	if !t.Failed() || dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("soak artifacts: %v", err)
		return
	}
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2)
	os.WriteFile(filepath.Join(dir, "goroutines.txt"), buf.Bytes(), 0o644)
	cl := c.Client()
	for i, tn := range c.Nodes {
		if !tn.up {
			continue
		}
		if code, body := rawGet(t, cl, tn.URL()+"/metrics"); code == http.StatusOK {
			os.WriteFile(filepath.Join(dir, fmt.Sprintf("metrics-n%d.txt", i)), body, 0o644)
		}
		if code, body := rawGet(t, cl, tn.URL()+"/v1/sessions/"+id+"/loss"); code == http.StatusOK {
			os.WriteFile(filepath.Join(dir, fmt.Sprintf("loss-n%d.json", i)), body, 0o644)
		}
	}
	t.Logf("soak artifacts written to %s", dir)
}
