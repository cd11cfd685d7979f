// Command psmd serves the rule-engine as a long-lived daemon: many
// independent OPS5 sessions behind one HTTP JSON API, sharded by session
// ID over engine shards that each request holds in turn (see
// internal/server).
//
// Usage examples:
//
//	psmd -addr :8080
//	psmd -addr :8080 -shards 8 -queue 256 -timeout 10s
//	psmd -addr :8080 -max-wmes 100000 -max-cycles 10000
//	psmd -addr :8080 -log-format json -slow-cycle 50ms
//	psmd -addr :8080 -data-dir /var/lib/psmd -fsync interval
//
// With -data-dir set, every session keeps a write-ahead log and
// periodic snapshots on disk; a crash or restart recovers all sessions
// with identical working memory and conflict sets (see
// internal/durable). SIGTERM drains in-flight requests, takes a final
// snapshot of every session, and exits.
//
// Endpoints (see internal/server/http.go for the wire formats):
//
//	POST   /v1/sessions                create a session (program in body)
//	GET    /v1/sessions                list sessions
//	GET    /v1/sessions/{id}           session stats
//	DELETE /v1/sessions/{id}           delete a session
//	POST   /v1/sessions/{id}/changes   batched assert/retract changes
//	POST   /v1/sessions/{id}/run       run N recognize-act cycles
//	GET    /v1/sessions/{id}/conflicts conflict set (LEX order)
//	GET    /v1/sessions/{id}/wm        working memory (?class= filters)
//	GET    /v1/sessions/{id}/trace     recent cycle spans (survives deletion)
//	GET    /v1/sessions/{id}/profile   hot-node profile (?top= truncates)
//	GET    /metrics                    serving metrics, text exposition
//	GET    /statusz                    human-readable session table
//	GET    /healthz                    liveness
//	GET    /readyz                     readiness (503 while recovering or draining)
//	GET    /v1/cluster/status          membership, sessions, replication lag (cluster mode)
//	GET    /debug/pprof/...            runtime profiles (disable with -no-pprof)
//
// Every request carries a trace ID (X-Request-Id header, generated when
// absent) that is echoed in the response, logged on the request line,
// and attached to the recognize-act cycle spans the request drives.
//
// Cluster mode (see internal/cluster): give every node an identity and
// the full static peer list, and sessions place themselves across the
// fleet by consistent hashing, replicate their WALs to followers, and
// fail over when a node dies:
//
//	psmd -addr :8080 -data-dir /var/lib/psmd \
//	     -node a -peers a=http://10.0.0.1:8080,b=http://10.0.0.2:8080,c=http://10.0.0.3:8080 \
//	     -replicas 2 -forward
//
// SIGTERM on a cluster node drains: it stops accepting new work
// (/readyz turns 503), hands every live session to its ring successor
// with a final snapshot, and exits without dropping state.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/server"
)

// version identifies the build on -version, /metrics (psmd_build_info)
// and /v1/cluster/status. Overridable at link time:
//
//	go build -ldflags "-X main.version=1.2.3" ./cmd/psmd
var version = "0.6.0-dev"

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 128, "callers that may wait for one shard's turn before 429 backpressure")
	retryAfter := flag.Duration("retry-after", time.Second, "backoff suggested on 429 responses")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = default, negative = none)")
	maxWMEs := flag.Int("max-wmes", 0, "default per-session working-memory quota (0 = unlimited)")
	maxCycles := flag.Int("max-cycles", 0, "default per-session cycles-per-run quota (0 = unlimited)")
	workers := flag.Int("workers", 0, "default parallel-matcher workers per session (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	logFormat := flag.String("log-format", "text", "structured log format (text|json)")
	logLevel := flag.String("log-level", "info", "minimum log level (debug|info|warn|error)")
	slowCycle := flag.Duration("slow-cycle", 0, "log any recognize-act cycle slower than this (0 = disabled)")
	traceDepth := flag.Int("trace-depth", 0, "cycle spans retained per session (0 = default)")
	noPprof := flag.Bool("no-pprof", false, "do not mount /debug/pprof")
	dataDir := flag.String("data-dir", "", "make sessions durable (WAL + snapshots) under this directory; recover them at startup")
	fsyncMode := flag.String("fsync", "always", "WAL sync policy: always|interval|never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "background sync period under -fsync=interval")
	snapshotEvery := flag.Int("snapshot-every", 1024, "checkpoint a session after this many WAL records (<0 = never automatically)")
	nodeID := flag.String("node", "", "this node's ID in the cluster (requires -peers)")
	peersFlag := flag.String("peers", "", "static cluster membership: comma-separated id=url pairs including this node")
	replicas := flag.Int("replicas", 2, "copies of each session (owner + followers) in cluster mode")
	forward := flag.Bool("forward", false, "proxy misrouted requests to the owner instead of answering 307")
	heartbeat := flag.Duration("heartbeat", time.Second, "cluster heartbeat interval")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: %s [flags]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Printf("psmd %s %s\n", version, runtime.Version())
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "psmd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psmd: %v\n", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psmd: %v\n", err)
		os.Exit(2)
	}
	fsync, err := durable.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psmd: %v\n", err)
		os.Exit(2)
	}

	// Cluster mode: the node is built first so the server can announce
	// session lifecycle to it (the Replicator hooks), and started after
	// the server exists to heartbeat and ship over it.
	var node *cluster.Node
	if *peersFlag != "" || *nodeID != "" {
		peers, err := cluster.ParsePeers(*peersFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psmd: %v\n", err)
			os.Exit(2)
		}
		if *nodeID == "" || len(peers) == 0 {
			fmt.Fprintln(os.Stderr, "psmd: cluster mode needs both -node and -peers")
			os.Exit(2)
		}
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "psmd: cluster mode needs -data-dir (replicas are durable state)")
			os.Exit(2)
		}
		node, err = cluster.New(cluster.Config{
			Self:      *nodeID,
			Peers:     peers,
			Replicas:  *replicas,
			Forward:   *forward,
			Heartbeat: *heartbeat,
			Version:   version,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "psmd: %v\n", err)
			os.Exit(2)
		}
	}

	cfg := server.Config{
		Shards:     *shards,
		QueueDepth: *queue,
		RetryAfter: *retryAfter,
		DefaultQuota: server.Quota{
			MaxWMEs:             *maxWMEs,
			MaxCyclesPerRequest: *maxCycles,
		},
		DefaultWorkers: *workers,
		Logger:         logger,
		TraceDepth:     *traceDepth,
		SlowCycle:      *slowCycle,
		DataDir:        *dataDir,
		Fsync:          fsync,
		FsyncInterval:  *fsyncInterval,
		SnapshotEvery:  *snapshotEvery,
	}
	if node != nil {
		cfg.Replicator = node
	}
	srv := server.New(cfg)
	srv.Registry().Gauge(fmt.Sprintf("psmd_build_info{version=%q,go=%q,node=%q}",
		version, runtime.Version(), *nodeID),
		"build identity; constant 1").Set(1)
	if node != nil {
		if err := node.Start(srv); err != nil {
			fmt.Fprintf(os.Stderr, "psmd: %v\n", err)
			os.Exit(1)
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.HandlerWith(server.HandlerConfig{
		RequestTimeout: *timeout,
		DisablePprof:   *noPprof,
	})}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "pprof", !*noPprof,
		"slow_cycle", *slowCycle, "log_format", *logFormat,
		"data_dir", *dataDir, "fsync", fsync.String(),
		"version", version, "node", *nodeID)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		// ListenAndServe only returns on failure before shutdown.
		logger.Error("serve failed", "err", err)
		srv.Close()
		os.Exit(1)
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "budget", *drain)
		// Readiness flips first so load balancers stop sending work,
		// then in-flight requests finish, then (cluster mode) every
		// live session is pushed to its ring successor, and only then
		// does the server close — a clean exit loses nothing.
		srv.SetDraining()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("shutdown failed", "err", err)
			srv.Close()
			os.Exit(1)
		}
		if node != nil {
			node.Drain(ctx)
			node.Stop()
		}
		srv.Close()
	}
}
