package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ops5"
	"repro/internal/server"
)

// clusterRegressionSeeds are schedules that once broke an invariant
// below; they run on every `go test`, before the numbered seeds. At the
// commit before the cluster review, 3 and 6 answered a write 404
// mid-failover and 10 left a standby the ring had moved away from
// behind its owner for good.
var clusterRegressionSeeds = []int64{3, 6, 10}

// schedSessions are the two counter sessions every schedule drives.
var schedSessions = []string{"sched-a", "sched-b"}

// schedStep is one step of a fault schedule.
type schedStep struct {
	kind   string // write, barrier, kill, exit, restart, partition, heal
	node   int    // write entry node, fault victim, or one end of a cut
	peer   int    // the other end of a cut
	sess   int    // write: index into schedSessions
	cycles int    // write: cycles to run
}

func (s schedStep) String() string {
	switch s.kind {
	case "write":
		return fmt.Sprintf("write(%s,%d via n%d)", schedSessions[s.sess], s.cycles, s.node)
	case "partition", "heal":
		return fmt.Sprintf("%s(n%d,n%d)", s.kind, s.node, s.peer)
	case "barrier":
		return "barrier"
	}
	return fmt.Sprintf("%s(n%d)", s.kind, s.node)
}

// genSchedule draws a schedule of 10–15 steps over three nodes: at most
// one node down and at most one cut pair at a time, and a barrier
// between every write and the next kill or exit, so a crash never takes
// an acknowledged write with it. Half the seeds use partitions; half
// run in redirect mode instead of -forward.
func genSchedule(seed int64) (steps []schedStep, forward, partitions bool) {
	rng := rand.New(rand.NewSource(seed))
	forward = rng.Intn(2) == 0
	partitions = rng.Intn(2) == 0
	down, cut := -1, [2]int{-1, -1}
	dirty := false // a write not yet behind a barrier
	for n := 10 + rng.Intn(6); len(steps) < n; {
		switch r := rng.Intn(10); {
		case r < 4:
			node := rng.Intn(3)
			for node == down {
				node = rng.Intn(3)
			}
			steps = append(steps, schedStep{kind: "write", node: node, sess: rng.Intn(2), cycles: 1 + rng.Intn(10)})
			dirty = true
		case r < 5:
			steps = append(steps, schedStep{kind: "barrier"})
			dirty = false
		case r < 8:
			if down >= 0 {
				steps = append(steps, schedStep{kind: "restart", node: down})
				down = -1
				continue
			}
			if dirty {
				steps = append(steps, schedStep{kind: "barrier"})
				dirty = false
			}
			kind := "kill"
			if rng.Intn(3) == 0 {
				kind = "exit"
			}
			down = rng.Intn(3)
			steps = append(steps, schedStep{kind: kind, node: down})
		default:
			if !partitions {
				continue
			}
			if cut[0] >= 0 {
				steps = append(steps, schedStep{kind: "heal", node: cut[0], peer: cut[1]})
				cut = [2]int{-1, -1}
				continue
			}
			a := rng.Intn(3)
			cut = [2]int{a, (a + 1 + rng.Intn(2)) % 3}
			steps = append(steps, schedStep{kind: "partition", node: cut[0], peer: cut[1]})
		}
	}
	return steps, forward, partitions
}

// TestClusterSchedules runs seeded fault schedules — writes through
// random nodes, replication barriers, kills, restarts, drained exits,
// partitions and heals — against three nodes holding two counter
// sessions. Once every cut is healed, every node is back and four dead
// timers have passed, it requires:
//
//   - exactly one live owner per session;
//   - every standby copy at its owner's WAL sequence;
//   - on schedules without partitions, the owner's counter equal to the
//     sum of acknowledged cycles: no acknowledged write is lost.
//     Partitioned schedules skip this one: replication is asynchronous,
//     so a write acknowledged on the minority side of a cut may lose to
//     the other side's lineage when the cut heals.
//
// Three seeds run by default, one under -short; CLUSTER_SCHEDULES=N runs
// seeds 1..N. Seeds that failed once live in clusterRegressionSeeds.
func TestClusterSchedules(t *testing.T) {
	n := 3
	if testing.Short() {
		n = 1
	}
	if v := os.Getenv("CLUSTER_SCHEDULES"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil {
			t.Fatalf("bad CLUSTER_SCHEDULES %q: %v", v, err)
		}
	}
	seeds := append([]int64{}, clusterRegressionSeeds...)
	for s := int64(1); s <= int64(n); s++ {
		if !slices.Contains(clusterRegressionSeeds, s) {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSchedule(t, seed) })
	}
}

func runSchedule(t *testing.T, seed int64) {
	steps, forward, partitions := genSchedule(seed)
	t.Logf("forward=%v partitions=%v %v", forward, partitions, steps)
	c := Start(t, 3, forward)
	for _, id := range schedSessions {
		ops := sessionOps{id: id}
		c.MustJSON(0, "POST", "/v1/sessions", ops.create(), nil, http.StatusCreated)
		c.MustJSON(0, "POST", "/v1/sessions/"+id+"/changes", ops.seed(), nil, http.StatusOK)
	}
	c.barrier(true)
	acked := make([]int, len(schedSessions))
	cutActive := false
	for i, st := range steps {
		switch st.kind {
		case "write":
			budget := 10 * time.Second
			if cutActive {
				budget = 2 * time.Second
			}
			if err := c.write(st.node, schedSessions[st.sess], st.cycles, partitions, budget); err != nil {
				if !partitions {
					t.Fatalf("step %d %v: %v", i, st, err)
				}
				t.Logf("step %d %v: %v", i, st, err)
				continue
			}
			acked[st.sess] += st.cycles
		case "barrier":
			c.barrier(!cutActive)
		case "kill":
			c.Kill(st.node)
		case "exit":
			c.Exit(st.node)
		case "restart":
			c.Restart(st.node)
		case "partition":
			c.Partition(st.node, st.peer)
			cutActive = true
		case "heal":
			c.Heal(st.node, st.peer)
			cutActive = false
		}
	}
	c.HealAll()
	for i, tn := range c.Nodes {
		if !tn.up {
			c.Restart(i)
		}
	}
	time.Sleep(4 * deadAfter)
	for s, id := range schedSessions {
		state := c.converged(id)
		for deadline := time.Now().Add(15 * time.Second); state != "" && time.Now().Before(deadline); state = c.converged(id) {
			time.Sleep(20 * time.Millisecond)
		}
		if state != "" {
			t.Fatalf("%s never converged: %s", id, state)
		}
		if partitions {
			continue
		}
		var wm []server.WMEInfo
		c.MustJSON(c.OwnerOf(id), "GET", "/v1/sessions/"+id+"/wm?class=counter", nil, &wm, http.StatusOK)
		if len(wm) != 1 || wm[0].Attrs["n"] != ops5.Num(float64(acked[s])) {
			t.Fatalf("%s: counter %+v, want n = %d acknowledged cycles", id, wm, acked[s])
		}
	}
}

// write runs cycles on a session through one node until a reply
// acknowledges them, retrying what a failover may answer: transport
// errors (a 307 to a node that just went down), 307, 429, 502 and 503 —
// and 404 when allow404 is set, for a cut that may hide every copy.
func (c *Cluster) write(node int, id string, cycles int, allow404 bool, budget time.Duration) error {
	body, err := json.Marshal(server.RunRequest{Cycles: cycles})
	if err != nil {
		return err
	}
	cl := c.Client()
	last := "no attempt"
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		resp, err := cl.Post(c.Nodes[node].URL()+"/v1/sessions/"+id+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			last = err.Error()
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		last = fmt.Sprintf("%d %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		switch resp.StatusCode {
		case http.StatusOK:
			var run server.RunResult
			if err := json.Unmarshal(raw, &run); err != nil {
				return err
			}
			if run.Fired != cycles {
				return fmt.Errorf("run fired %d of %d cycles", run.Fired, cycles)
			}
			return nil
		case http.StatusTemporaryRedirect, http.StatusTooManyRequests,
			http.StatusBadGateway, http.StatusServiceUnavailable:
		case http.StatusNotFound:
			if !allow404 {
				return fmt.Errorf("not acknowledged: %s", last)
			}
		default:
			return fmt.Errorf("not acknowledged: %s", last)
		}
	}
	return fmt.Errorf("not acknowledged within %v: %s", budget, last)
}

// barrier waits until every session has exactly one live owner whose
// followers have confirmed its whole WAL. With must unset (a cut is
// active, so the wait may never end) it gives up quietly after a second.
func (c *Cluster) barrier(must bool) {
	c.T.Helper()
	deadline := time.Now().Add(10 * time.Second)
	if !must {
		deadline = time.Now().Add(time.Second)
	}
	for _, id := range schedSessions {
		for !c.replicated(id) {
			if time.Now().After(deadline) {
				if must {
					c.T.Fatalf("barrier: %s not replicated", id)
				}
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// replicated reports whether a session has one live owner and zero
// replication lag.
func (c *Cluster) replicated(id string) bool {
	owners := c.owners(id)
	if len(owners) != 1 {
		return false
	}
	for _, s := range c.Status(owners[0]).Sessions {
		if s.ID == id {
			return s.ReplicationLag == 0 && s.Seq > 0
		}
	}
	return false
}

// owners lists the up nodes serving a session live.
func (c *Cluster) owners(id string) []int {
	var out []int
	for i, tn := range c.Nodes {
		if tn.up && tn.srv.HasSession(id) {
			out = append(out, i)
		}
	}
	return out
}

// converged describes how a session falls short of one live owner with
// every standby at the owner's sequence ("" once it does).
func (c *Cluster) converged(id string) string {
	owners := c.owners(id)
	if len(owners) != 1 {
		return fmt.Sprintf("live on %v", owners)
	}
	seq := int64(-1)
	for _, s := range c.Status(owners[0]).Sessions {
		if s.ID == id {
			seq = s.Seq
		}
	}
	for i := range c.Nodes {
		for _, sb := range c.Status(i).Standbys {
			if sb.ID == id && sb.Seq != seq {
				return fmt.Sprintf("owner n%d at seq %d, standby on n%d at %d", owners[0], seq, i, sb.Seq)
			}
		}
	}
	return ""
}
