package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/server/stats"
)

// Config sizes the server.
type Config struct {
	// Shards is the engine-shard count; sessions are distributed by
	// hash(sessionID) (default GOMAXPROCS).
	Shards int
	// QueueDepth bounds the callers waiting for each shard's turn; a
	// caller past the bound is rejected with BusyError — backpressure
	// instead of unbounded queueing (default 128).
	QueueDepth int
	// RetryAfter is the backoff suggested with BusyError (default 1s).
	RetryAfter time.Duration
	// DefaultQuota applies to sessions that do not set their own.
	DefaultQuota Quota
	// DefaultWorkers is the parallel-matcher worker count for sessions
	// that do not set their own (0 = GOMAXPROCS).
	DefaultWorkers int
	// Logger receives structured request and slow-cycle logs (default:
	// discard).
	Logger *slog.Logger
	// TraceDepth bounds each session's cycle-span ring (default
	// obs.DefaultRingDepth).
	TraceDepth int
	// SlowCycle logs any recognize-act cycle whose phases sum past this
	// threshold, dumping the offending span (0 = disabled).
	SlowCycle time.Duration
	// DataDir, when set, makes sessions durable: each gets a
	// write-ahead log and periodic snapshots under this directory
	// (internal/durable), and the server recovers every session found
	// there at startup (unless a Replicator is set).
	DataDir string
	// Fsync selects the WAL sync policy for durable sessions (default
	// always).
	Fsync durable.FsyncPolicy
	// FsyncInterval is the background sync period under the interval
	// policy (default 100ms).
	FsyncInterval time.Duration
	// SnapshotEvery checkpoints a durable session after this many WAL
	// records, bounding replay work at recovery (default 1024; <0
	// disables automatic snapshots).
	SnapshotEvery int
	// Replicator, when set, makes this server a cluster node
	// (internal/cluster): it places session requests, serves the
	// cluster routes and observes session lifecycle for WAL shipping.
	Replicator Replicator
}

// Replicator is the cluster layer's hook into the server.
//
// SessionUp fires when a durable session becomes live on this server
// (created, or adopted after promotion) — before it serves its first
// request — handing over the log so the replicator can tee WAL records.
// SessionDown fires when the session stops being live here; deleted
// distinguishes API deletion (replicas must be removed) from demotion
// (replicas live on). Both are called while a shard's turn is held
// and must not block. A server with a Replicator recovers no session
// at startup: the durable directories are the replicator's to reopen
// as copies, so a session becomes live only by create or by adoption.
//
// Place runs every /v1/sessions/{id} route, and a create once its body
// is decoded: it calls serve to answer here, proxies the request, or
// returns the error to answer with. pinned marks a create whose ID
// NewSessionID just generated. The Serve methods are the cluster's own
// routes in HandlerWith's table.
type Replicator interface {
	SessionUp(id string, log *durable.Log)
	SessionDown(id string, deleted bool)
	Place(w http.ResponseWriter, r *http.Request, id string, pinned bool, serve func() error) error
	NewSessionID() string
	ServeStatus(w http.ResponseWriter, r *http.Request) error
	ServePing(w http.ResponseWriter, r *http.Request) error
	ServeReplicaSnapshot(w http.ResponseWriter, r *http.Request) error
	ServeReplicaRecords(w http.ResponseWriter, r *http.Request) error
	ServeReplicaDelete(w http.ResponseWriter, r *http.Request) error
	ServePromote(w http.ResponseWriter, r *http.Request) error
}

// Server readiness states for /readyz: recovery in progress, serving,
// or draining ahead of shutdown.
const (
	stateStarting = iota
	stateServing
	stateDraining
)

// Server hosts sessions across a fixed pool of engine shards.
type Server struct {
	cfg     Config
	shards  []*shard
	start   time.Time
	nextID  atomic.Int64
	logger  *slog.Logger
	archive traceArchive

	mu     sync.RWMutex // guards closed vs in-flight dispatches
	closed bool
	wg     sync.WaitGroup

	// index is the one session table (id -> *session). Only the holder
	// of a session's shard turn writes its entry — apart from startup
	// recovery before New returns and close once every dispatch has
	// drained — while cluster placement and heartbeats read it without
	// a lock. state is the /readyz lifecycle (starting -> serving ->
	// draining).
	index sync.Map
	state atomic.Int32

	// programs holds the compiled program of every recently used rule
	// source; sessions of one source share it.
	programs *programTable

	// Serving metrics (the §6 throughput numbers, measured at the
	// service boundary).
	registry     *stats.Registry
	sessions     *stats.Gauge
	requests     *stats.Counter
	rejected     *stats.Counter
	panics       *stats.Counter
	wmeChanges   *stats.Counter
	firings      *stats.Counter
	cycles       *stats.Counter
	wakeups      *stats.Counter
	matchSeconds *stats.Histogram
	runSeconds   *stats.Histogram

	// Streaming-ingest metrics (the /v1/sessions/{id}/stream endpoint).
	streamEvents  *stats.Counter
	streamBatches *stats.Counter
	streamLag     *stats.Gauge
	expiredWMEs   *stats.Counter

	// Loss-accounting metrics: labelled series are created on first
	// observation (the phase set comes from the matcher's loss report),
	// guarded by lossMu; the counters themselves are lock-free.
	lossMu     sync.Mutex
	phaseSecs  map[string]*stats.FloatCounter
	taskCounts map[string]*stats.Counter

	// Durability metrics (zero-valued but present even when -data-dir
	// is unset, so dashboards never miss the series).
	walBytes        *stats.Counter
	snapshotSeconds *stats.Histogram
	recovered       *stats.Counter
}

// New returns a server ready to serve. It starts no goroutine: every
// session operation runs on its caller's goroutine while it holds its
// shard's turn (dispatchShard).
func New(cfg Config) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.TraceDepth <= 0 {
		cfg.TraceDepth = obs.DefaultRingDepth
	}
	r := stats.NewRegistry()
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		logger:   cfg.Logger,
		registry: r,
		sessions: r.Gauge("psmd_sessions", "live sessions"),
		requests: r.Counter("psmd_requests_total", "session operations dispatched to shards"),
		rejected: r.Counter("psmd_rejected_total", "operations rejected by shard backpressure"),
		panics:   r.Counter("psmd_panics_total", "session operations recovered from panic"),
		wmeChanges: r.Counter("psmd_wme_changes_total",
			"working-memory changes processed (submitted and fired)"),
		firings: r.Counter("psmd_firings_total", "production firings"),
		cycles:  r.Counter("psmd_cycles_total", "recognize-act cycles executed"),
		wakeups: r.Counter("psmd_sched_wakeups_total",
			"parallel-matcher batches that borrowed a helper lane (batches not run inline)"),
		matchSeconds: r.Histogram("psmd_match_seconds",
			"latency of one change batch through the matcher", nil),
		runSeconds: r.Histogram("psmd_run_seconds",
			"latency of one run-cycles request", nil),
		streamEvents: r.Counter("psmd_stream_events_total",
			"events applied through streaming ingest"),
		streamBatches: r.Counter("psmd_stream_batches_total",
			"event batches applied through streaming ingest"),
		streamLag: r.Gauge("psmd_stream_lag_events",
			"events read off stream connections but not yet applied"),
		expiredWMEs: r.Counter("psmd_expired_wmes_total",
			"event facts retracted by TTL expiry"),
		walBytes: r.Counter("psmd_wal_bytes_total",
			"bytes appended to session write-ahead logs"),
		snapshotSeconds: r.Histogram("psmd_snapshot_seconds",
			"latency of one durable-session snapshot", nil),
		recovered: r.Counter("psmd_recovered_sessions",
			"sessions recovered from durable state at startup"),
		phaseSecs:  make(map[string]*stats.FloatCounter),
		taskCounts: make(map[string]*stats.Counter),
		programs:   newProgramTable(r),
	}
	r.GaugeFunc("psmd_uptime_seconds", "seconds since server start", func() float64 {
		return time.Since(s.start).Seconds()
	})
	r.GaugeFunc("psmd_wme_changes_per_sec", "working-memory changes per second of uptime", func() float64 {
		return float64(s.wmeChanges.Value()) / time.Since(s.start).Seconds()
	})
	r.GaugeFunc("psmd_firings_per_sec", "production firings per second of uptime", func() float64 {
		return float64(s.firings.Value()) / time.Since(s.start).Seconds()
	})
	r.GaugeFunc("psmd_goroutines", "live goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("psmd_heap_alloc_bytes", "heap bytes allocated and still in use", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{id: i, turn: make(chan struct{}, 1)}
		s.shards[i] = sh
		r.GaugeFunc(fmt.Sprintf("psmd_shard_queue_depth{shard=%q}", fmt.Sprint(i)),
			"callers waiting for a shard's turn", func() float64 { return float64(sh.waiting.Load()) })
	}
	// Recover durable sessions before New returns: nothing can dispatch
	// yet, so recovered sessions register without taking a turn. A
	// cluster node's copies are its Replicator's. The server is ready
	// the moment New returns.
	if cfg.DataDir != "" && cfg.Replicator == nil {
		s.recoverSessions()
	}
	s.state.Store(stateServing)
	return s
}

// durableOpts builds the per-session durable options, routing append
// and snapshot observations into the serving metrics.
func (s *Server) durableOpts() durable.Options {
	every := s.cfg.SnapshotEvery
	if every == 0 {
		every = 1024
	} else if every < 0 {
		every = 0
	}
	return durable.Options{
		Fsync:         s.cfg.Fsync,
		FsyncInterval: s.cfg.FsyncInterval,
		SnapshotEvery: every,
		ObserveAppend: func(bytes int) { s.walBytes.Add(int64(bytes)) },
		ObserveSnapshot: func(d time.Duration, bytes int) {
			s.snapshotSeconds.Observe(d.Seconds())
		},
	}
}

// sessionDir maps a session ID onto its durable directory. IDs are
// arbitrary API strings, so the path component is hex-encoded.
func (s *Server) sessionDir(id string) string {
	return filepath.Join(s.cfg.DataDir, hex.EncodeToString([]byte(id)))
}

// attachDurable installs the session's change-log sink: every batch the
// engine commits lands in the WAL. Append failures degrade durability,
// not service — the first one is logged, the session keeps running.
func (s *Server) attachDurable(sess *session, log *durable.Log) {
	sess.log = log
	sess.sys.Engine.Sink = func(changes []ops5.Change, firedKeys []string) {
		if err := log.Append(changes, firedKeys); err != nil && !sess.walErrLogged {
			sess.walErrLogged = true
			s.logger.Warn("wal append failed; session no longer durable",
				"session", sess.id, "err", err)
		}
	}
	if s.cfg.Replicator != nil {
		s.cfg.Replicator.SessionUp(sess.id, log)
	}
}

// recoverSessions rebuilds every session found under DataDir: manifest
// → compile (without the program's initial working memory) → snapshot
// restore → WAL replay. A directory that fails to recover is logged
// and skipped, left as it is; it never takes the server down.
func (s *Server) recoverSessions() {
	dirs, err := durable.SessionDirs(s.cfg.DataDir)
	if err != nil {
		s.logger.Error("durable recovery: list sessions", "data_dir", s.cfg.DataDir, "err", err)
		return
	}
	var maxAuto int64
	for _, dir := range dirs {
		spec, err := readSpec(dir)
		if err != nil {
			s.logger.Error("durable recovery failed; skipping session", "dir", dir, "err", err)
			continue
		}
		// Keep server-assigned IDs from colliding with recovered ones,
		// and with skipped ones: their directories keep the manifest.
		if n, ok := autoIDNumber(spec.ID); ok && n > maxAuto {
			maxAuto = n
		}
		sess, rstats, err := s.recoverSession(dir, spec)
		if err != nil {
			s.logger.Error("durable recovery failed; skipping session", "dir", dir,
				"session", spec.ID, "matcher", spec.Matcher, "err", err)
			continue
		}
		s.index.Store(sess.id, sess)
		s.sessions.Add(1)
		s.recovered.Inc()
		s.logger.Info("session recovered",
			"session", sess.id, "shard", s.shardFor(sess.id).id,
			"snapshot_seq", rstats.SnapshotSeq, "replayed", rstats.Replayed,
			"wal_truncated", rstats.Truncated,
			"wm_size", sess.sys.WM.Size(), "conflicts", sess.sys.CS.Len())
	}
	for {
		cur := s.nextID.Load()
		if cur >= maxAuto || s.nextID.CompareAndSwap(cur, maxAuto) {
			return
		}
	}
}

// autoIDNumber reads the number of an ID in the server-assigned form
// "s-" followed by decimal digits. The whole suffix is read: the
// assigned form is zero-padded to six digits, but IDs past 999999 (or
// chosen by a client) are wider.
func autoIDNumber(id string) (int64, bool) {
	digits, ok := strings.CutPrefix(id, "s-")
	if !ok || digits == "" || strings.TrimLeft(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	return n, err == nil
}

// readSpec decodes the create spec a session directory's manifest
// holds.
func readSpec(dir string) (CreateSpec, error) {
	manifest, err := durable.ReadManifest(dir)
	if err != nil {
		return CreateSpec{}, err
	}
	spec, err := decodeManifest(manifest)
	if err != nil {
		return CreateSpec{}, fmt.Errorf("decode manifest: %w", err)
	}
	return spec, nil
}

// recoverSession rebuilds one session from its durable directory and
// the spec its manifest holds (readSpec).
func (s *Server) recoverSession(dir string, spec CreateSpec) (*session, durable.RecoverStats, error) {
	sess, err := s.newSession(spec, true)
	if err != nil {
		return nil, durable.RecoverStats{}, fmt.Errorf("build program: %w", err)
	}
	log, rstats, err := durable.Recover(dir, sess.sys.Engine, s.durableOpts())
	if err != nil {
		return nil, rstats, err
	}
	sess.trace = obs.NewRing(s.cfg.TraceDepth)
	sess.sys.Engine.OnCycle = s.observeCycle(sess)
	s.attachDurable(sess, log)
	return sess, rstats, nil
}

// Registry exposes the serving metrics (for /metrics and tests).
func (s *Server) Registry() *stats.Registry { return s.registry }

// Close waits for in-flight dispatches to drain: operations already
// running or waiting for a turn still execute; new dispatches fail with
// ErrServerClosed. Durable sessions then take a final snapshot and
// close their logs — the graceful-shutdown path behind psmd's SIGTERM
// handling, so a clean restart replays no WAL at all.
func (s *Server) Close() { s.close(true) }

// Abort stops the server without final snapshots or WAL closes: the
// on-disk durable state is exactly what a kill -9 would leave behind.
// The cluster test harness uses it to crash one in-process node while
// the rest of the cluster keeps running.
func (s *Server) Abort() { s.close(false) }

func (s *Server) close(snapshot bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	if !snapshot {
		return
	}
	// Every dispatch has returned and no new one is admitted, so the
	// sessions are single-threaded again.
	s.index.Range(func(_, v any) bool {
		sess := v.(*session)
		if sess.log == nil {
			return true
		}
		if _, err := sess.log.Snapshot(); err != nil {
			s.logger.Error("final snapshot failed", "session", sess.id, "err", err)
		}
		if err := sess.log.Close(); err != nil {
			s.logger.Error("wal close failed", "session", sess.id, "err", err)
		}
		return true
	})
}

// shardFor maps a session ID onto its owning shard. The hash is reduced
// as a uint32: converted to a 32-bit int first, a third of all IDs
// would index below zero.
func (s *Server) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// dispatchShard runs fn on the calling goroutine once it holds sh's
// turn. A caller that would make more than QueueDepth waiters fails fast
// with BusyError, so it never queues without bound behind another
// tenant's work; one whose context ends while it waits returns
// ctx.Err() without running fn. An fn already running answers when it
// returns: the engine's cycle loop and stream ingest stop at the
// deadline on their own. A panic in fn becomes an error, so a bug in
// one session's program cannot take down the process or wedge the
// shard of every other tenant hashed to it.
func dispatchShard[T any](s *Server, ctx context.Context, sh *shard, fn func(sh *shard) (T, error)) (val T, err error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return val, ErrServerClosed
	}
	if sh.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		sh.waiting.Add(-1)
		s.mu.RUnlock()
		s.rejected.Inc()
		return val, &BusyError{Shard: sh.id, RetryAfter: s.cfg.RetryAfter}
	}
	s.wg.Add(1)
	s.mu.RUnlock()
	defer s.wg.Done()
	s.requests.Inc()

	// A free turn is taken without touching ctx.Done, which would
	// allocate the context's done channel.
	select {
	case sh.turn <- struct{}{}:
	default:
		select {
		case sh.turn <- struct{}{}:
		case <-ctx.Done():
			sh.waiting.Add(-1)
			return val, ctx.Err()
		}
	}
	sh.waiting.Add(-1)
	defer func() { <-sh.turn }()
	if err = ctx.Err(); err != nil {
		return val, err
	}
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			var zero T
			val, err = zero, fmt.Errorf("server: internal error: %v\n%s", r, debug.Stack())
		}
	}()
	return fn(sh)
}

// dispatchSession runs fn on session id while holding its shard's
// turn: the one path of every per-session operation. It resolves the
// session (or fails with ErrNoSession), counts the request, labels the
// engine's spans with the request's trace ID, and afterwards accounts
// whatever the engine committed — whether or not fn failed, since a
// deadline or a bad input after a commit leaves that work in place.
func dispatchSession[T any](s *Server, ctx context.Context, id string, fn func(sess *session) (T, error)) (T, error) {
	return dispatchShard(s, ctx, s.shardFor(id), func(*shard) (T, error) {
		v, ok := s.index.Load(id)
		if !ok {
			var zero T
			return zero, fmt.Errorf("%w: %q", ErrNoSession, id)
		}
		sess := v.(*session)
		sess.requests++
		sess.sys.Engine.TraceID = obs.TraceID(ctx)
		before := countsOf(sess.sys.Engine)
		val, err := fn(sess)
		s.account(sess, before)
		return val, err
	})
}

// CreateSession compiles spec (on the calling goroutine, so compilation
// never serializes a shard) and registers the session with its shard.
func (s *Server) CreateSession(ctx context.Context, spec CreateSpec) (SessionInfo, error) {
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("s-%06d", s.nextID.Add(1))
	}
	if spec.Workers == 0 {
		spec.Workers = s.cfg.DefaultWorkers
	}
	sess, err := s.newSession(spec, false)
	if err != nil {
		return SessionInfo{}, err
	}
	sess.trace = obs.NewRing(s.cfg.TraceDepth)
	sess.sys.Engine.OnCycle = s.observeCycle(sess)
	return dispatchShard(s, ctx, s.shardFor(spec.ID), func(sh *shard) (SessionInfo, error) {
		if _, dup := s.index.Load(spec.ID); dup {
			return SessionInfo{}, fmt.Errorf("%w: %q", ErrSessionExists, spec.ID)
		}
		if s.cfg.DataDir != "" {
			// The manifest records the fully defaulted spec, so a
			// restart under different server flags reproduces the
			// session exactly as created.
			manifest, err := encodeManifest(spec)
			if err != nil {
				return SessionInfo{}, err
			}
			log, err := durable.Create(s.sessionDir(spec.ID), manifest, sess.sys.Engine, s.durableOpts())
			if err != nil {
				return SessionInfo{}, fmt.Errorf("server: create durable log: %w", err)
			}
			s.attachDurable(sess, log)
		}
		s.index.Store(spec.ID, sess)
		s.sessions.Add(1)
		s.wmeChanges.Add(int64(sess.sys.TotalChanges)) // initial (make ...) forms
		return sess.info(sh.id, time.Now()), nil
	})
}

// SnapshotResult reports a forced checkpoint.
type SnapshotResult struct {
	SessionID string `json:"session_id"`
	durable.SnapshotInfo
}

// Snapshot forces a durable checkpoint of one session: the WAL resets
// and recovery restarts from the state at this moment.
func (s *Server) Snapshot(ctx context.Context, id string) (SnapshotResult, error) {
	return dispatchSession(s, ctx, id, func(sess *session) (SnapshotResult, error) {
		if sess.log == nil {
			return SnapshotResult{}, badReqf("server: session %q is not durable (start psmd with -data-dir)", id)
		}
		info, err := sess.log.Snapshot()
		return SnapshotResult{SessionID: id, SnapshotInfo: info}, err
	})
}

// observeCycle builds a session's span hook: every engine step lands in
// the session's trace ring, and steps past the slow-cycle threshold are
// logged with their full span.
func (s *Server) observeCycle(sess *session) func(obs.CycleSpan) {
	return func(sp obs.CycleSpan) {
		sess.trace.Add(sp)
		if s.cfg.SlowCycle > 0 && sp.Total() >= s.cfg.SlowCycle {
			attrs := append([]slog.Attr{slog.String("session", sess.id)}, sp.LogAttrs()...)
			s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow cycle", attrs...)
		}
	}
}

// DeleteSession removes a session (see unregister), and its durable
// state with it — a deleted session must not resurrect at the next
// restart.
func (s *Server) DeleteSession(ctx context.Context, id string) error {
	_, err := dispatchSession(s, ctx, id, func(sess *session) (struct{}, error) {
		s.unregister(sess, true)
		if sess.log != nil {
			if err := sess.log.Close(); err != nil {
				s.logger.Warn("wal close on delete", "session", id, "err", err)
			}
			if err := sess.log.Remove(); err != nil {
				s.logger.Warn("durable state removal", "session", id, "err", err)
			}
		}
		return struct{}{}, nil
	})
	return err
}

// unregister takes a session out of service, the sequence deletion and
// demotion share: its trace window moves to the archive (so /trace
// keeps answering for recently evicted sessions), the WAL sink and the
// replicator let go of it (deleted says whether its replicas go too),
// and it leaves the session table. Its durable log is the caller's to
// close.
func (s *Server) unregister(sess *session, deleted bool) {
	s.archive.put(TraceResult{
		SessionID: sess.id,
		Evicted:   true,
		Total:     sess.trace.Total(),
		Spans:     sess.trace.Snapshot(),
	})
	if sess.log != nil {
		sess.sys.Engine.Sink = nil
		if s.cfg.Replicator != nil {
			s.cfg.Replicator.SessionDown(sess.id, deleted)
		}
	}
	s.index.Delete(sess.id)
	s.sessions.Add(-1)
}

// Apply commits a batch of working-memory changes to a session and runs
// its matcher once (one synchronization step).
func (s *Server) Apply(ctx context.Context, id string, specs []ChangeSpec) (ApplyResult, error) {
	return dispatchSession(s, ctx, id, func(sess *session) (ApplyResult, error) {
		t0 := time.Now()
		res, err := sess.apply(specs)
		if err != nil {
			return ApplyResult{}, err
		}
		s.matchSeconds.Observe(time.Since(t0).Seconds())
		return res, nil
	})
}

// StreamApply commits one streaming event batch to a session: clock
// advance, TTL expiries, asserts, then recognize-act cycles to
// quiescence (see session.ingest). It is one shard dispatch — a shard
// with QueueDepth callers already waiting surfaces BusyError, the
// stream handler's connection-level backpressure signal. A batch whose
// events were committed counts as applied even when its cycles end in
// an error (Batches is 1 beside the error). The caller moved the batch
// onto the psmd_stream_lag_events gauge when it was read; the gauge is
// given back here whether the batch applies or fails.
func (s *Server) StreamApply(ctx context.Context, id string, events []EventSpec) (StreamResult, error) {
	defer s.streamLag.Add(-int64(len(events)))
	return dispatchSession(s, ctx, id, func(sess *session) (StreamResult, error) {
		t0 := time.Now()
		res, err := sess.ingest(ctx, events)
		if res.Batches == 0 {
			return res, err
		}
		s.matchSeconds.Observe(time.Since(t0).Seconds())
		s.streamEvents.Add(int64(res.Events))
		s.streamBatches.Inc()
		sess.trace.Add(obs.CycleSpan{
			TraceID: obs.TraceID(ctx), Kind: obs.SpanStream, Cycle: sess.sys.Cycles,
			Start: t0, Match: time.Since(t0),
			Fired: res.Fired, Changes: res.Events,
			WMSize: res.WMSize, ConflictSize: res.ConflictSize,
		})
		return res, err
	})
}

// streamState reports a session's stream state without applying
// anything: what a stream that carried no event answers with.
func (s *Server) streamState(ctx context.Context, id string) (StreamResult, error) {
	return dispatchSession(s, ctx, id, func(sess *session) (StreamResult, error) {
		return StreamResult{
			SessionID:    id,
			Clock:        sess.sys.Engine.Clock,
			WMSize:       sess.sys.WM.Size(),
			ConflictSize: sess.sys.CS.Len(),
		}, nil
	})
}

// StreamLagAdd moves n events onto (or off, negative) the
// psmd_stream_lag_events gauge — the handler calls it as events come
// off the wire, before their batch reaches a shard.
func (s *Server) StreamLagAdd(n int64) { s.streamLag.Add(n) }

// engineCounts are the engine's four cumulative counters that the
// server-wide totals follow.
type engineCounts struct{ changes, fired, cycles, expired int }

func countsOf(eng *engine.Engine) engineCounts {
	return engineCounts{eng.TotalChanges, eng.Fired, eng.Cycles, eng.Expired}
}

// account ends every session operation (dispatchSession): the four
// server-wide engine counters advance by what the session's engine
// committed since before, and, when any of them moved, the scheduler
// and loss metrics by what its matcher counted since the previous
// account. Labelled loss series appear on first observation — the phase
// vocabulary belongs to the matcher, not the server. Turn holder only.
func (s *Server) account(sess *session, before engineCounts) {
	now := countsOf(sess.sys.Engine)
	if now == before {
		return
	}
	s.wmeChanges.Add(int64(now.changes - before.changes))
	s.firings.Add(int64(now.fired - before.fired))
	s.cycles.Add(int64(now.cycles - before.cycles))
	s.expiredWMEs.Add(int64(now.expired - before.expired))
	s.wakeups.Add(sess.wakeupDelta())
	phases, buckets := sess.lossDeltas()
	for name, secs := range phases {
		if secs > 0 {
			s.phaseCounter(name).Add(secs)
		}
	}
	for le, n := range buckets {
		if n > 0 {
			s.taskCounter(le).Add(n)
		}
	}
}

// phaseCounter returns (creating on first use) the phase-seconds series
// for one scheduler phase.
func (s *Server) phaseCounter(phase string) *stats.FloatCounter {
	s.lossMu.Lock()
	defer s.lossMu.Unlock()
	c := s.phaseSecs[phase]
	if c == nil {
		c = s.registry.FloatCounter(fmt.Sprintf("psmd_sched_phase_seconds_total{phase=%q}", phase),
			"parallel-matcher wall time by scheduler phase (plus the serial seed/merge regions)")
		s.phaseSecs[phase] = c
	}
	return c
}

// taskCounter returns (creating on first use) the activation-count
// series for one task-size bucket (le = inclusive nanosecond bound).
func (s *Server) taskCounter(le string) *stats.Counter {
	s.lossMu.Lock()
	defer s.lossMu.Unlock()
	c := s.taskCounts[le]
	if c == nil {
		c = s.registry.Counter(fmt.Sprintf("psmd_task_activations{le=%q}", le),
			"parallel-matcher activations by execution-time bucket (nanoseconds)")
		s.taskCounts[le] = c
	}
	return c
}

// RunCycles executes up to maxCycles recognize-act cycles (0 = until
// quiescence, halt, quota, or the request deadline). The session's
// MaxCyclesPerRequest quota truncates larger asks — graceful
// degradation, reported through RunResult.LimitHit rather than an
// error.
func (s *Server) RunCycles(ctx context.Context, id string, maxCycles int) (RunResult, error) {
	return dispatchSession(s, ctx, id, func(sess *session) (RunResult, error) {
		limit := maxCycles
		if q := sess.quota.MaxCyclesPerRequest; q > 0 && (limit <= 0 || limit > q) {
			limit = q
		}
		eng := sess.sys.Engine
		firedBefore := eng.Fired
		t0 := time.Now()
		n, err := eng.RunContext(ctx, limit)
		s.runSeconds.Observe(time.Since(t0).Seconds())
		if err != nil && !errors.Is(err, engine.ErrCycleLimit) {
			return RunResult{}, err
		}
		res := RunResult{
			Cycles:       n,
			Fired:        eng.Fired - firedBefore,
			Halted:       eng.Halted,
			LimitHit:     errors.Is(err, engine.ErrCycleLimit),
			WMSize:       sess.sys.WM.Size(),
			ConflictSize: sess.sys.CS.Len(),
		}
		res.Quiesced = !res.Halted && !res.LimitHit
		return res, nil
	})
}

// Conflicts returns the session's conflict set in its strategy's order
// (LEX or MEA), best first.
func (s *Server) Conflicts(ctx context.Context, id string) ([]InstInfo, error) {
	return dispatchSession(s, ctx, id, func(sess *session) ([]InstInfo, error) {
		insts := sess.sys.CS.Instantiations()
		out := make([]InstInfo, 0, len(insts))
		for _, inst := range insts {
			info := InstInfo{Production: inst.Production.Name, Key: inst.Key(), WMEs: make([]WMEInfo, 0, len(inst.WMEs))}
			for _, w := range inst.WMEs {
				if w != nil {
					info.WMEs = append(info.WMEs, wmeInfo(w))
				}
			}
			out = append(out, info)
		}
		return out, nil
	})
}

// WM returns the session's working memory, optionally filtered by
// class, ordered by time tag.
func (s *Server) WM(ctx context.Context, id, class string) ([]WMEInfo, error) {
	return dispatchSession(s, ctx, id, func(sess *session) ([]WMEInfo, error) {
		wmes := sess.sys.WM.Elements()
		if class != "" {
			wmes = sess.sys.WM.OfClass(class)
		}
		out := make([]WMEInfo, len(wmes))
		for i, w := range wmes {
			out[i] = wmeInfo(w)
		}
		return out, nil
	})
}

// SessionStats snapshots one session.
func (s *Server) SessionStats(ctx context.Context, id string) (SessionInfo, error) {
	return dispatchSession(s, ctx, id, func(sess *session) (SessionInfo, error) {
		return sess.info(s.shardFor(id).id, time.Now()), nil
	})
}

// Sessions snapshots every live session, shard by shard: each shard's
// sessions are read while its turn is held.
func (s *Server) Sessions(ctx context.Context) ([]SessionInfo, error) {
	out := []SessionInfo{} // no sessions lists as [], not null
	for _, sh := range s.shards {
		infos, err := dispatchShard(s, ctx, sh, func(sh *shard) (infos []SessionInfo, _ error) {
			now := time.Now()
			s.index.Range(func(_, v any) bool {
				if sess := v.(*session); s.shardFor(sess.id) == sh {
					infos = append(infos, sess.info(sh.id, now))
				}
				return true
			})
			return infos, nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, infos...)
	}
	return out, nil
}
