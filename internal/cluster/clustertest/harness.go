// Package clustertest is an in-process multi-node harness for the
// cluster subsystem: it starts N psmd nodes on real loopback listeners
// (placement, forwarding, WAL shipping and failover all exercise the
// actual HTTP wire protocol), crashes nodes abruptly, and restarts
// them on the same address with the same data directory — the
// kill -9/rejoin scenarios the ROADMAP's client-visible bar is about.
package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/server"
)

// Heartbeat is aggressive so a full kill/failover round trips in well
// under a second of wall clock (a peer is suspect after 4 heartbeats,
// dead after 10), yet coarse enough not to flap under -race on a loaded
// CI machine.
const Heartbeat = 25 * time.Millisecond

// Node is one in-process psmd node.
type Node struct {
	ID   string
	Dir  string // durable data dir, survives Kill/Restart
	Addr string // host:port, stable across Restart

	ln       net.Listener
	node     *cluster.Node
	srv      *server.Server
	http     *http.Server
	handlers *handlerGate
	up       bool
}

// handlerGate counts one node incarnation's running HTTP handlers.
// http.Server.Close closes the listener and the connections but does
// not wait for the handlers already running, and a replication push in
// flight still writes into the node's data directory (a standby opened
// or a snapshot installed after the node stopped). Closing the gate
// waits for them; a request that reaches a handler after that is
// dropped, as a killed process would drop it.
type handlerGate struct {
	mu      sync.Mutex
	closed  bool
	running sync.WaitGroup
}

func (g *handlerGate) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			panic(http.ErrAbortHandler)
		}
		g.running.Add(1)
		g.mu.Unlock()
		defer g.running.Done()
		h.ServeHTTP(w, r)
	})
}

// close turns away new handlers and waits for the running ones.
func (g *handlerGate) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.running.Wait()
}

// URL is the node's base URL.
func (n *Node) URL() string { return "http://" + n.Addr }

// Server exposes the node's server (for direct assertions).
func (n *Node) Server() *server.Server { return n.srv }

// Cluster is a running set of nodes sharing one static peer list.
type Cluster struct {
	T     *testing.T
	Nodes []*Node

	peers   map[string]string
	forward bool
	logw    io.Writer

	mu  sync.Mutex
	cut map[[2]string]bool // severed (from, to) address pairs
}

// Start brings up n nodes. Listeners are created first so every node
// knows every peer's URL before any node starts — the static -peers
// model. forward selects proxy-forwarding (true) or 307 redirects. It
// returns once every node has heard every peer's inventory.
func Start(t *testing.T, n int, forward bool) *Cluster {
	t.Helper()
	return StartLogging(t, n, forward, nil)
}

// StartLogging is Start with every node's info-level log written to w
// as JSON lines, each carrying the node's ID (nil discards, as Start).
func StartLogging(t *testing.T, n int, forward bool, w io.Writer) *Cluster {
	t.Helper()
	c := &Cluster{T: t, forward: forward, logw: w,
		peers: make(map[string]string, n), cut: make(map[[2]string]bool)}
	root := t.TempDir()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		id := fmt.Sprintf("n%d", i)
		node := &Node{
			ID:   id,
			Dir:  filepath.Join(root, id),
			Addr: ln.Addr().String(),
			ln:   ln,
		}
		c.Nodes = append(c.Nodes, node)
		c.peers[id] = node.URL()
	}
	for _, node := range c.Nodes {
		c.boot(node)
	}
	t.Cleanup(c.Close)
	// A node answers 503 for sessions it does not serve until it has
	// heard every peer's inventory; a probe for a session no node holds
	// reads 404 once that is true everywhere.
	for i, tn := range c.Nodes {
		c.WaitFor(5*time.Second, tn.ID+" heard from every peer", func() bool {
			return c.JSON(i, "GET", "/v1/sessions/clustertest-probe", nil, nil) == http.StatusNotFound
		})
	}
	return c
}

// boot starts (or restarts) one node on its existing listener.
func (c *Cluster) boot(tn *Node) {
	c.T.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	switch {
	case c.logw != nil:
		logger = slog.New(slog.NewJSONHandler(c.logw, nil)).With("node", tn.ID)
	case os.Getenv("CLUSTERTEST_VERBOSE") != "":
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})).
			With("node", tn.ID)
	}
	node, err := cluster.New(cluster.Config{
		Self:      tn.ID,
		Peers:     c.peers,
		Replicas:  2,
		Forward:   c.forward,
		Heartbeat: Heartbeat,
		Client:    &http.Client{Timeout: 2 * time.Second, Transport: cutTransport{c, tn.Addr}},
		Version:   "clustertest",
	})
	if err != nil {
		c.T.Fatalf("cluster.New(%s): %v", tn.ID, err)
	}
	srv := server.New(server.Config{
		Shards:     2,
		DataDir:    tn.Dir,
		Fsync:      durable.FsyncNever,
		Logger:     logger,
		Replicator: node,
	})
	if err := node.Start(srv); err != nil {
		c.T.Fatalf("node.Start(%s): %v", tn.ID, err)
	}
	tn.node = node
	tn.srv = srv
	tn.handlers = &handlerGate{}
	tn.http = &http.Server{Handler: tn.handlers.wrap(srv.HandlerWith(server.HandlerConfig{DisablePprof: true}))}
	go tn.http.Serve(tn.ln)
	tn.up = true
}

// Kill crashes a node: connections drop, no final snapshots, the
// durable directory is left exactly as a kill -9 would leave it. It
// returns once nothing of the node writes there any more, so a Restart
// or the test's TempDir cleanup never races a handler of the dead
// incarnation.
func (c *Cluster) Kill(i int) {
	c.T.Helper()
	tn := c.Nodes[i]
	if !tn.up {
		return
	}
	tn.up = false
	tn.http.Close() // closes the listener and in-flight connections
	tn.handlers.close()
	tn.srv.Abort()
	tn.node.Stop()
}

// Restart brings a killed node back on its original address and data
// directory — the rejoin scenario.
func (c *Cluster) Restart(i int) {
	c.T.Helper()
	tn := c.Nodes[i]
	if tn.up {
		c.T.Fatalf("node %s is already up", tn.ID)
	}
	var (
		ln  net.Listener
		err error
	)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ln, err = net.Listen("tcp", tn.Addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			c.T.Fatalf("relisten on %s: %v", tn.Addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tn.ln = ln
	c.boot(tn)
}

// Drain gracefully hands a node's sessions to successors (the -drain
// shutdown path): readiness flips and every live session is pushed to
// its successor. The HTTP listener stays up so the test can inspect
// /v1/cluster/status on the drained node; call Kill to finish tearing
// it down.
func (c *Cluster) Drain(i int) {
	c.T.Helper()
	tn := c.Nodes[i]
	tn.srv.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tn.node.Drain(ctx)
}

// Exit performs a real node's full SIGTERM sequence: stop accepting
// (the listener closes first, so peers can no longer learn this node's
// state from heartbeats), drain every session to a successor, stop the
// cluster loop, close the server. Closing the listener before the
// handoffs reproduces the rolling-restart race where the survivors'
// last heartbeat of this node predates the drain entirely.
func (c *Cluster) Exit(i int) {
	c.T.Helper()
	tn := c.Nodes[i]
	if !tn.up {
		return
	}
	tn.up = false
	tn.http.Close()
	tn.handlers.close()
	tn.srv.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tn.node.Drain(ctx)
	tn.node.Stop()
	tn.srv.Close()
}

// Partition cuts the intra-cluster traffic between nodes i and j both
// ways — heartbeats, shipping, proxy hops — while clients still reach
// both.
func (c *Cluster) Partition(i, j int) { c.setCut(i, j, true) }

// Heal undoes Partition(i, j).
func (c *Cluster) Heal(i, j int) { c.setCut(i, j, false) }

// HealAll undoes every Partition.
func (c *Cluster) HealAll() {
	c.mu.Lock()
	clear(c.cut)
	c.mu.Unlock()
}

func (c *Cluster) setCut(i, j int, cut bool) {
	a, b := c.Nodes[i].Addr, c.Nodes[j].Addr
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut[[2]string{a, b}], c.cut[[2]string{b, a}] = cut, cut
}

// cutTransport is one node's intra-cluster transport: a request across
// a cut fails as a dropped connection would.
type cutTransport struct {
	c    *Cluster
	from string // the node's own address
}

func (t cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.c.mu.Lock()
	cut := t.c.cut[[2]string{t.from, req.URL.Host}]
	t.c.mu.Unlock()
	if cut {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("clustertest: %s is cut off from %s", t.from, req.URL.Host)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// Close tears the whole cluster down. Every node has stopped writing
// into its data directory when it returns (see Kill).
func (c *Cluster) Close() {
	for i, tn := range c.Nodes {
		if tn.up {
			c.Kill(i)
		}
	}
}

// Client returns an HTTP client that follows redirects (307 bodies are
// re-sent automatically because requests carry GetBody).
func (c *Cluster) Client() *http.Client {
	return &http.Client{Timeout: 10 * time.Second}
}

// JSON drives the API through a specific node. Status is returned;
// out, when non-nil, receives the decoded 2xx body.
func (c *Cluster) JSON(node int, method, path string, body, out any) int {
	c.T.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.T.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.Nodes[node].URL()+path, rd)
	if err != nil {
		c.T.Fatal(err)
	}
	resp, err := c.Client().Do(req)
	if err != nil {
		c.T.Fatalf("%s %s via %s: %v", method, path, c.Nodes[node].ID, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.T.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			c.T.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

// MustJSON fails the test unless the call returns want.
func (c *Cluster) MustJSON(node int, method, path string, body, out any, want int) {
	c.T.Helper()
	if got := c.JSON(node, method, path, body, out); got != want {
		c.T.Fatalf("%s %s via %s: status %d, want %d", method, path, c.Nodes[node].ID, got, want)
	}
}

// Status fetches a node's /v1/cluster/status.
func (c *Cluster) Status(node int) cluster.StatusResponse {
	c.T.Helper()
	var st cluster.StatusResponse
	c.MustJSON(node, "GET", "/v1/cluster/status", nil, &st, http.StatusOK)
	return st
}

// OwnerOf finds the node currently serving a session live (-1 if
// none).
func (c *Cluster) OwnerOf(id string) int {
	c.T.Helper()
	for i, tn := range c.Nodes {
		if tn.up && tn.srv.HasSession(id) {
			return i
		}
	}
	return -1
}

// WaitFor polls cond until it holds or the deadline passes.
func (c *Cluster) WaitFor(d time.Duration, what string, cond func() bool) {
	c.T.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			c.T.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// WaitReplicated waits until the owner of session id reports zero
// replication lag — every committed batch has reached its followers,
// so a subsequent crash loses nothing.
func (c *Cluster) WaitReplicated(owner int, id string) {
	c.T.Helper()
	c.WaitFor(5*time.Second, "replication lag 0 for "+id, func() bool {
		st := c.Status(owner)
		for _, s := range st.Sessions {
			if s.ID == id {
				return s.ReplicationLag == 0 && s.Seq > 0
			}
		}
		return false
	})
}
