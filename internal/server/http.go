package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ops5"
)

// Wire types for the JSON API. OPS5 values map onto JSON naturally:
// numbers stay numbers, symbols are strings, nil is null.

// CreateRequest is the body of POST /sessions.
type CreateRequest struct {
	ID              string `json:"id,omitempty"`
	Program         string `json:"program"`
	Matcher         string `json:"matcher,omitempty"`
	Strategy        string `json:"strategy,omitempty"`
	Workers         int    `json:"workers,omitempty"`
	NoSteal         bool   `json:"no_steal,omitempty"`
	ParallelFirings int    `json:"parallel_firings,omitempty"`
	MaxWMEs         int    `json:"max_wmes,omitempty"`
	MaxCycles       int    `json:"max_cycles_per_request,omitempty"`
}

// WireChange is one change in POST /sessions/{id}/changes.
type WireChange struct {
	Op    string         `json:"op"` // "assert" | "retract"
	Class string         `json:"class,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
	Tag   int            `json:"tag,omitempty"`
}

// ChangesRequest is the body of POST /sessions/{id}/changes.
type ChangesRequest struct {
	Changes []WireChange `json:"changes"`
}

// ChangesResponse reports a committed batch.
type ChangesResponse struct {
	Applied      int   `json:"applied"`
	Tags         []int `json:"tags,omitempty"`
	WMSize       int   `json:"wm_size"`
	ConflictSize int   `json:"conflict_size"`
}

// RunRequest is the body of POST /sessions/{id}/run.
type RunRequest struct {
	Cycles int `json:"cycles,omitempty"` // 0 = until quiescence/halt/quota
}

// RunResponse reports an executed run.
type RunResponse struct {
	Cycles       int  `json:"cycles"`
	Fired        int  `json:"fired"`
	Halted       bool `json:"halted"`
	Quiesced     bool `json:"quiesced"`
	LimitHit     bool `json:"limit_hit"`
	WMSize       int  `json:"wm_size"`
	ConflictSize int  `json:"conflict_size"`
}

// StreamEvent is one NDJSON line of POST /sessions/{id}/stream: an
// event fact to assert. ts, when set, advances the session's logical
// clock to at least that value before the event lands (monotone —
// out-of-order timestamps never move the clock backward). ttl, when
// positive, makes the fact an expiring event: the engine retracts it
// once the clock has advanced ttl ticks past the insert.
type StreamEvent struct {
	Class string         `json:"class"`
	Attrs map[string]any `json:"attrs,omitempty"`
	TS    int64          `json:"ts,omitempty"`
	TTL   int            `json:"ttl,omitempty"`
}

// StreamResponse summarises one stream connection's ingest: the body of
// POST /sessions/{id}/stream on success. Clock, WMSize and ConflictSize
// reflect the session after the final batch.
type StreamResponse struct {
	SessionID    string `json:"session_id"`
	Events       int    `json:"events"`
	Batches      int    `json:"batches"`
	Fired        int    `json:"fired"`
	Cycles       int    `json:"cycles"`
	Expired      int    `json:"expired"`
	Clock        int64  `json:"clock"`
	WMSize       int    `json:"wm_size"`
	ConflictSize int    `json:"conflict_size"`
}

// WireWME is one working-memory element on the wire.
type WireWME struct {
	Tag   int            `json:"tag"`
	Class string         `json:"class"`
	Attrs map[string]any `json:"attrs"`
}

// WireInst is one conflict-set instantiation on the wire.
type WireInst struct {
	Production string    `json:"production"`
	Key        string    `json:"key"`
	WMEs       []WireWME `json:"wmes"`
}

// SessionResponse reports a session's state.
type SessionResponse struct {
	ID              string  `json:"id"`
	Shard           int     `json:"shard"`
	Matcher         string  `json:"matcher"`
	Strategy        string  `json:"strategy"`
	Productions     int     `json:"productions"`
	ParallelFirings int     `json:"parallel_firings,omitempty"`
	MaxWMEs         int     `json:"max_wmes,omitempty"`
	MaxCycles       int     `json:"max_cycles_per_request,omitempty"`
	WMSize          int     `json:"wm_size"`
	ConflictSize    int     `json:"conflict_size"`
	Cycles          int     `json:"cycles"`
	Fired           int     `json:"fired"`
	TotalChanges    int     `json:"total_changes"`
	Halted          bool    `json:"halted"`
	Requests        int64   `json:"requests"`
	AgeSeconds      float64 `json:"age_seconds"`
	TraceSpans      int     `json:"trace_spans"`
	TraceTotal      int64   `json:"trace_total"`
	LastCycleSecs   float64 `json:"last_cycle_seconds,omitempty"`
	// Streaming: the logical clock, cumulative TTL expiries, and live
	// elements still awaiting expiry.
	Clock           int64 `json:"clock,omitempty"`
	Expired         int   `json:"expired,omitempty"`
	PendingExpiries int   `json:"pending_expiries,omitempty"`
	// Durability: present when the server runs with -data-dir.
	Durable         bool   `json:"durable,omitempty"`
	Recovered       bool   `json:"recovered,omitempty"`
	ReplayedRecords int64  `json:"replayed_records,omitempty"`
	WALSeq          int64  `json:"wal_seq,omitempty"`
	SnapshotSeq     int64  `json:"snapshot_seq,omitempty"`
	WALRecords      int64  `json:"wal_records,omitempty"`
	WALBytes        int64  `json:"wal_bytes,omitempty"`
	WALError        string `json:"wal_error,omitempty"`
}

// SnapshotResponse reports a forced checkpoint
// (POST /v1/sessions/{id}/snapshot).
type SnapshotResponse struct {
	SessionID string `json:"session_id"`
	Seq       int64  `json:"seq"`
	Bytes     int    `json:"bytes"`
	WMEs      int    `json:"wmes"`
}

// WireSpan is one engine step on the wire (phase durations in seconds).
type WireSpan struct {
	TraceID       string    `json:"trace_id,omitempty"`
	Kind          string    `json:"kind"`
	Cycle         int       `json:"cycle"`
	Start         time.Time `json:"start"`
	TotalSeconds  float64   `json:"total_seconds"`
	MatchSeconds  float64   `json:"match_seconds"`
	SelectSeconds float64   `json:"select_seconds"`
	ActSeconds    float64   `json:"act_seconds"`
	Fired         int       `json:"fired"`
	Changes       int       `json:"changes"`
	WMSize        int       `json:"wm_size"`
	ConflictSize  int       `json:"conflict_size"`
}

// TraceResponse is the body of GET /v1/sessions/{id}/trace.
type TraceResponse struct {
	SessionID string     `json:"session_id"`
	Evicted   bool       `json:"evicted"`
	Total     int64      `json:"total_spans"`
	Spans     []WireSpan `json:"spans"`
}

// WireProfileNode is one match-network node in a profile, with its
// share of the profile's total cost.
type WireProfileNode struct {
	NodeID        int      `json:"node_id"`
	Label         string   `json:"label"`
	SharedBy      int      `json:"shared_by,omitempty"`
	Productions   []string `json:"productions,omitempty"`
	Activations   int64    `json:"activations"`
	TokensTested  int64    `json:"tokens_tested"`
	PairsEmitted  int64    `json:"pairs_emitted"`
	IndexedProbes int64    `json:"indexed_probes"`
	Cost          float64  `json:"cost"`
	CostShare     float64  `json:"cost_share"`
}

// WireMatchStats summarises whole-matcher work in a profile. The
// scheduler fields (tasks/steals/parks/workers) are present only for
// the parallel matcher.
type WireMatchStats struct {
	Changes         int64            `json:"changes"`
	Comparisons     int64            `json:"comparisons"`
	ConflictInserts int64            `json:"conflict_inserts"`
	ConflictRemoves int64            `json:"conflict_removes"`
	Tasks           int64            `json:"tasks,omitempty"`
	Steals          int64            `json:"steals,omitempty"`
	Parks           int64            `json:"parks,omitempty"`
	Wakeups         int64            `json:"wakeups,omitempty"`
	InlineBatches   int64            `json:"inline_batches,omitempty"`
	ResidentWorkers int              `json:"resident_workers,omitempty"`
	Workers         []WireWorkerStat `json:"workers,omitempty"`
}

// WireWorkerStat is one scheduler lane's counters on the wire.
type WireWorkerStat struct {
	Executed int64 `json:"executed"`
	Stolen   int64 `json:"stolen"`
	Parked   int64 `json:"parked"`
}

// WireIndex summarises a matcher's hash-index state in a profile.
type WireIndex struct {
	IndexedNodes  int `json:"indexed_nodes"`
	FallbackNodes int `json:"fallback_nodes"`
	Buckets       int `json:"buckets"`
	MaxBucket     int `json:"max_bucket"`
}

// WirePhaseSeconds is one scheduler phase's accumulated wall time.
type WirePhaseSeconds struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// WireWorkerLoss is one scheduler lane's phase breakdown.
type WireWorkerLoss struct {
	Worker int                `json:"worker"`
	Tasks  int64              `json:"tasks"`
	Phases []WirePhaseSeconds `json:"phases"`
}

// WireTaskBucket is one bar of the task-size histogram: activations
// that executed in at most up_to_nanos (0 marks the open top bucket).
type WireTaskBucket struct {
	UpToNanos int64 `json:"up_to_nanos"`
	Count     int64 `json:"count"`
}

// WireLossComponent is one term of the loss decomposition.
type WireLossComponent struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// WireLoss is a session's loss-factor accounting on the wire — the
// paper's §6 decomposition of where parallel speedup goes.
type WireLoss struct {
	Workers               int                 `json:"workers"`
	Batches               int                 `json:"batches"`
	ApplySeconds          float64             `json:"apply_seconds"`
	SeedSeconds           float64             `json:"seed_seconds"`
	ActiveSeconds         float64             `json:"active_seconds"`
	MergeSeconds          float64             `json:"merge_seconds"`
	Phases                []WirePhaseSeconds  `json:"phases"`
	PerWorker             []WireWorkerLoss    `json:"per_worker,omitempty"`
	TaskSizes             []WireTaskBucket    `json:"task_sizes,omitempty"`
	SerialEstimateSeconds float64             `json:"serial_estimate_seconds"`
	TrueSpeedup           float64             `json:"true_speedup"`
	NominalConcurrency    float64             `json:"nominal_concurrency"`
	LossFactor            float64             `json:"loss_factor"`
	Decomposition         []WireLossComponent `json:"decomposition"`
}

// LossResponse is the body of GET /v1/sessions/{id}/loss.
type LossResponse struct {
	SessionID string    `json:"session_id"`
	Matcher   string    `json:"matcher"`
	Supported bool      `json:"supported"`
	Loss      *WireLoss `json:"loss,omitempty"`
}

// ProfileResponse is the body of GET /v1/sessions/{id}/profile.
type ProfileResponse struct {
	SessionID      string            `json:"session_id"`
	Matcher        string            `json:"matcher"`
	Cycles         int               `json:"cycles"`
	TotalChanges   int               `json:"total_changes"`
	NodesSupported bool              `json:"nodes_supported"`
	TotalCost      float64           `json:"total_cost"`
	Nodes          []WireProfileNode `json:"nodes"`
	Truncated      int               `json:"truncated,omitempty"`
	MatchStats     *WireMatchStats   `json:"match_stats,omitempty"`
	Index          *WireIndex        `json:"index,omitempty"`
	Loss           *WireLoss         `json:"loss,omitempty"`
}

// APIVersion is the HTTP API version prefix of every session route.
const APIVersion = "/v1"

// ErrorResponse is the single JSON error envelope returned by every
// handler: a stable machine-readable code, a human-readable message,
// and whether retrying the identical request may succeed (shard
// backpressure, shutdown, deadline — transient conditions).
type ErrorResponse struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// HandlerConfig tunes the HTTP layer.
type HandlerConfig struct {
	// RequestTimeout is the per-request deadline threaded through the
	// shard mailbox into the engine's cycle loop (default 30s; <0
	// disables).
	RequestTimeout time.Duration
	// DisablePprof leaves the /debug/pprof endpoints unmounted.
	DisablePprof bool
}

// Handler returns the HTTP API with default settings.
func (s *Server) Handler() http.Handler { return s.HandlerWith(HandlerConfig{}) }

// HandlerWith returns the HTTP API. The sessions API is versioned
// under /v1. Every error body is the ErrorResponse envelope.
//
//	POST   /v1/sessions                create a session (program in body)
//	GET    /v1/sessions                list sessions
//	GET    /v1/sessions/{id}           session stats
//	DELETE /v1/sessions/{id}           delete a session
//	POST   /v1/sessions/{id}/changes   submit batched assert/retract changes
//	POST   /v1/sessions/{id}/run       run N recognize-act cycles
//	POST   /v1/sessions/{id}/stream    ingest NDJSON event batches (TTL'd facts)
//	GET    /v1/sessions/{id}/conflicts conflict set (LEX order)
//	GET    /v1/sessions/{id}/wm        working memory (?class= filters)
//	GET    /v1/sessions/{id}/trace     recent cycle spans (survives deletion)
//	GET    /v1/sessions/{id}/profile   hot-node profile (?top= truncates)
//	GET    /v1/sessions/{id}/loss      loss-factor accounting (§6 decomposition)
//	POST   /v1/sessions/{id}/snapshot  force a durable checkpoint
//	GET    /metrics                    serving metrics, text exposition
//	GET    /statusz                    human-readable session table
//	GET    /healthz                    liveness
//	GET    /readyz                     readiness (503 while recovering or draining)
//	GET    /debug/pprof/...            runtime profiles (unless disabled)
//
// /metrics, /statusz, /healthz and /debug/pprof are operational
// endpoints and stay unversioned.
//
// Every request is traced: the X-Request-Id header (or a generated ID)
// becomes the request's trace ID, echoed in the response header,
// threaded through the engine into cycle spans, and attached to the
// structured request log line.
func (s *Server) HandlerWith(cfg HandlerConfig) http.Handler {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	mux := http.NewServeMux()
	h := func(fn func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			ctx := r.Context()
			if cfg.RequestTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, cfg.RequestTimeout)
				defer cancel()
			}
			if err := fn(w, r.WithContext(ctx)); err != nil {
				writeError(w, err)
			}
		}
	}
	// api registers pattern ("METHOD /path") under /v1.
	api := func(pattern string, fn func(w http.ResponseWriter, r *http.Request) error) {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			panic("server: route pattern must be \"METHOD /path\": " + pattern)
		}
		mux.HandleFunc(method+" "+APIVersion+path, h(fn))
	}

	api("POST /sessions", s.handleCreate)
	api("GET /sessions", s.handleList)
	api("GET /sessions/{id}", s.handleStats)
	api("DELETE /sessions/{id}", s.handleDelete)
	api("POST /sessions/{id}/changes", s.handleChanges)
	api("POST /sessions/{id}/run", s.handleRun)
	api("POST /sessions/{id}/stream", s.handleStream)
	api("GET /sessions/{id}/conflicts", s.handleConflicts)
	api("GET /sessions/{id}/wm", s.handleWM)
	api("GET /sessions/{id}/trace", s.handleTrace)
	api("GET /sessions/{id}/profile", s.handleProfile)
	api("GET /sessions/{id}/loss", s.handleLoss)
	api("POST /sessions/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.registry.WriteText(w)
	})
	mux.HandleFunc("GET /statusz", h(s.handleStatusz))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	// /readyz is liveness plus willingness: 503 while startup recovery
	// or a drain is in progress, so load balancers and cluster routing
	// skip nodes that are up but should not take new work.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	if !cfg.DisablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.observeHTTP(mux)
}

// observeHTTP wraps the API with per-request tracing and structured
// logging: the X-Request-Id header (or a fresh ID) becomes the
// request's trace ID — propagated via context into the engine and
// echoed in the response — and every request emits one log line with
// trace ID, session, shard, status and latency. Operational endpoints
// log at debug level to keep scrape noise out of info logs.
func (s *Server) observeHTTP(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID := r.Header.Get("X-Request-Id")
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		w.Header().Set("X-Request-Id", traceID)
		ctx := obs.WithTraceID(r.Context(), traceID)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))

		level := slog.LevelInfo
		if operational(r.URL.Path) {
			level = slog.LevelDebug
		}
		attrs := []slog.Attr{
			slog.String("trace_id", traceID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("latency", time.Since(t0)),
		}
		if id := sessionFromPath(r.URL.Path); id != "" {
			attrs = append(attrs,
				slog.String("session", id),
				slog.Int("shard", s.shardFor(id).id))
		}
		s.logger.LogAttrs(ctx, level, "request", attrs...)
	})
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// operational reports whether a path is a scrape/probe endpoint whose
// request logs belong at debug level.
func operational(path string) bool {
	return path == "/metrics" || path == "/healthz" || path == "/readyz" ||
		path == "/statusz" || strings.HasPrefix(path, "/debug/pprof")
}

// sessionFromPath extracts the session ID from a sessions API path
// (best-effort, for log attribution only).
func sessionFromPath(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for i, p := range parts {
		if p == "sessions" && i+1 < len(parts) {
			return parts[i+1]
		}
	}
	return ""
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) error {
	var req CreateRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	info, err := s.CreateSession(r.Context(), CreateSpec{
		ID:              req.ID,
		Program:         req.Program,
		Matcher:         req.Matcher,
		Strategy:        req.Strategy,
		Workers:         req.Workers,
		NoSteal:         req.NoSteal,
		ParallelFirings: req.ParallelFirings,
		Quota:           Quota{MaxWMEs: req.MaxWMEs, MaxCyclesPerRequest: req.MaxCycles},
	})
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusCreated, sessionResponse(info))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	infos, err := s.Sessions(r.Context())
	if err != nil {
		return err
	}
	out := make([]SessionResponse, len(infos))
	for i, info := range infos {
		out[i] = sessionResponse(info)
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	info, err := s.SessionStats(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, sessionResponse(info))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	if err := s.DeleteSession(r.Context(), r.PathValue("id")); err != nil {
		return err
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) error {
	var req ChangesRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	specs := make([]ChangeSpec, len(req.Changes))
	for i, c := range req.Changes {
		spec := ChangeSpec{Op: ChangeOp(c.Op), Class: c.Class, Tag: c.Tag}
		if len(c.Attrs) > 0 {
			spec.Attrs = make(map[string]ops5.Value, len(c.Attrs))
			for k, v := range c.Attrs {
				val, err := jsonToValue(v)
				if err != nil {
					return badReqf("change %d attribute %q: %v", i, k, err)
				}
				spec.Attrs[k] = val
			}
		}
		specs[i] = spec
	}
	res, err := s.Apply(r.Context(), r.PathValue("id"), specs)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, ChangesResponse{
		Applied: res.Applied, Tags: res.Tags,
		WMSize: res.WMSize, ConflictSize: res.ConflictSize,
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) error {
	var req RunRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	res, err := s.RunCycles(r.Context(), r.PathValue("id"), req.Cycles)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, RunResponse{
		Cycles: res.Cycles, Fired: res.Fired, Halted: res.Halted,
		Quiesced: res.Quiesced, LimitHit: res.LimitHit,
		WMSize: res.WMSize, ConflictSize: res.ConflictSize,
	})
}

// streamBatchSize is how many NDJSON events one shard dispatch carries:
// large enough to amortize the mailbox round trip, small enough that a
// slow rule pack yields the shard to other tenants between batches.
const streamBatchSize = 256

// streamMaxLine bounds one NDJSON line (1 MiB).
const streamMaxLine = 1 << 20

// handleStream ingests a chunked NDJSON event stream: one JSON object
// per line (StreamEvent), applied in batches of streamBatchSize, each
// batch one shard dispatch that advances the clock, expires due events,
// asserts the new ones, and cycles to quiescence. Backpressure is
// connection-level: a full shard mailbox fails the stream with the
// standard 429 busy envelope plus Retry-After, and any mid-stream
// failure carries X-Stream-Events-Applied so the client can resume from
// the first unapplied event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	out := StreamResponse{SessionID: id}
	var batch []EventSpec
	// Events parsed but never dispatched leave the lag gauge here;
	// dispatched batches settle their own lag in StreamApply.
	defer func() { s.StreamLagAdd(-int64(len(batch))) }()
	fail := func(err error) error {
		w.Header().Set("X-Stream-Events-Applied", strconv.Itoa(out.Events))
		return err
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		res, err := s.StreamApply(r.Context(), id, batch)
		batch = batch[:0]
		if err != nil {
			return err
		}
		out.Events += res.Events
		out.Batches++
		out.Fired += res.Fired
		out.Cycles += res.Cycles
		out.Expired += res.Expired
		out.Clock = res.Clock
		out.WMSize, out.ConflictSize = res.WMSize, res.ConflictSize
		return nil
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), streamMaxLine)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			return fail(badReqf("stream line %d: %v", line, err))
		}
		spec := EventSpec{Class: ev.Class, TS: ev.TS, TTL: ev.TTL}
		if len(ev.Attrs) > 0 {
			spec.Attrs = make(map[string]ops5.Value, len(ev.Attrs))
			for k, v := range ev.Attrs {
				val, err := jsonToValue(v)
				if err != nil {
					return fail(badReqf("stream line %d attribute %q: %v", line, k, err))
				}
				spec.Attrs[k] = val
			}
		}
		batch = append(batch, spec)
		s.StreamLagAdd(1)
		if len(batch) >= streamBatchSize {
			if err := flush(); err != nil {
				return fail(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fail(badReqf("stream read: %v", err))
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	info, err := s.Snapshot(r.Context(), id)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, SnapshotResponse{
		SessionID: id, Seq: info.Seq, Bytes: info.Bytes, WMEs: info.WMEs,
	})
}

func (s *Server) handleConflicts(w http.ResponseWriter, r *http.Request) error {
	insts, err := s.Conflicts(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	out := make([]WireInst, len(insts))
	for i, inst := range insts {
		wi := WireInst{Production: inst.Production, Key: inst.Key, WMEs: make([]WireWME, len(inst.WMEs))}
		for j, wme := range inst.WMEs {
			wi.WMEs[j] = wireWME(wme)
		}
		out[i] = wi
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWM(w http.ResponseWriter, r *http.Request) error {
	wmes, err := s.WM(r.Context(), r.PathValue("id"), r.URL.Query().Get("class"))
	if err != nil {
		return err
	}
	out := make([]WireWME, len(wmes))
	for i, wme := range wmes {
		out[i] = wireWME(wme)
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) error {
	tr, err := s.Trace(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	out := TraceResponse{
		SessionID: tr.SessionID,
		Evicted:   tr.Evicted,
		Total:     tr.Total,
		Spans:     make([]WireSpan, len(tr.Spans)),
	}
	for i, sp := range tr.Spans {
		out.Spans[i] = wireSpan(sp)
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) error {
	res, err := s.Profile(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	top := 0
	if v := r.URL.Query().Get("top"); v != "" {
		if top, err = strconv.Atoi(v); err != nil || top < 0 {
			return badReqf("bad top parameter %q: want a non-negative integer", v)
		}
	}
	out := ProfileResponse{
		SessionID:      res.SessionID,
		Matcher:        res.Matcher,
		Cycles:         res.Cycles,
		TotalChanges:   res.TotalChanges,
		NodesSupported: res.NodesSupported,
		TotalCost:      res.TotalCost,
	}
	nodes := res.Nodes
	if top > 0 && len(nodes) > top {
		out.Truncated = len(nodes) - top
		nodes = nodes[:top]
	}
	out.Nodes = make([]WireProfileNode, len(nodes))
	for i, n := range nodes {
		out.Nodes[i] = wireProfileNode(n, res.TotalCost)
	}
	if res.MatchStats != nil {
		ms := &WireMatchStats{
			Changes:         res.MatchStats.Changes,
			Comparisons:     res.MatchStats.Comparisons,
			ConflictInserts: res.MatchStats.ConflictInserts,
			ConflictRemoves: res.MatchStats.ConflictRemoves,
			Tasks:           res.MatchStats.Tasks,
			Steals:          res.MatchStats.Steals,
			Parks:           res.MatchStats.Parks,
			Wakeups:         res.MatchStats.Wakeups,
			InlineBatches:   res.MatchStats.InlineBatches,
			ResidentWorkers: res.MatchStats.ResidentWorkers,
		}
		for _, ws := range res.MatchStats.Workers {
			ms.Workers = append(ms.Workers, WireWorkerStat{
				Executed: ws.Executed, Stolen: ws.Stolen, Parked: ws.Parked,
			})
		}
		out.MatchStats = ms
	}
	if res.Index != nil {
		out.Index = &WireIndex{
			IndexedNodes:  res.Index.IndexedNodes,
			FallbackNodes: res.Index.FallbackNodes,
			Buckets:       res.Index.Buckets,
			MaxBucket:     res.Index.MaxBucket,
		}
	}
	if res.Loss != nil {
		out.Loss = wireLoss(res.Loss)
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleLoss(w http.ResponseWriter, r *http.Request) error {
	res, err := s.Loss(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	out := LossResponse{
		SessionID: res.SessionID,
		Matcher:   res.Matcher,
		Supported: res.Supported,
	}
	if res.Report != nil {
		out.Loss = wireLoss(res.Report)
	}
	return writeJSON(w, http.StatusOK, out)
}

// wireLoss converts a loss report for the wire.
func wireLoss(l *engine.LossReport) *WireLoss {
	phases := func(ps []engine.PhaseSeconds) []WirePhaseSeconds {
		out := make([]WirePhaseSeconds, len(ps))
		for i, p := range ps {
			out[i] = WirePhaseSeconds{Phase: p.Phase, Seconds: p.Seconds}
		}
		return out
	}
	out := &WireLoss{
		Workers:               l.Workers,
		Batches:               l.Batches,
		ApplySeconds:          l.ApplySeconds,
		SeedSeconds:           l.SeedSeconds,
		ActiveSeconds:         l.ActiveSeconds,
		MergeSeconds:          l.MergeSeconds,
		Phases:                phases(l.Phases),
		SerialEstimateSeconds: l.SerialEstimateSeconds,
		TrueSpeedup:           l.TrueSpeedup,
		NominalConcurrency:    l.NominalConcurrency,
		LossFactor:            l.LossFactor,
	}
	for _, wl := range l.PerWorker {
		out.PerWorker = append(out.PerWorker, WireWorkerLoss{
			Worker: wl.Worker, Tasks: wl.Tasks, Phases: phases(wl.Phases),
		})
	}
	for _, b := range l.TaskSizes {
		out.TaskSizes = append(out.TaskSizes, WireTaskBucket{UpToNanos: b.UpToNanos, Count: b.Count})
	}
	for _, c := range l.Decomposition {
		out.Decomposition = append(out.Decomposition, WireLossComponent{
			Name: c.Name, Seconds: c.Seconds, Share: c.Share,
		})
	}
	return out
}

// wireSpan converts a cycle span for the wire.
func wireSpan(sp obs.CycleSpan) WireSpan {
	return WireSpan{
		TraceID:       sp.TraceID,
		Kind:          string(sp.Kind),
		Cycle:         sp.Cycle,
		Start:         sp.Start,
		TotalSeconds:  sp.Total().Seconds(),
		MatchSeconds:  sp.Match.Seconds(),
		SelectSeconds: sp.Select.Seconds(),
		ActSeconds:    sp.Act.Seconds(),
		Fired:         sp.Fired,
		Changes:       sp.Changes,
		WMSize:        sp.WMSize,
		ConflictSize:  sp.ConflictSize,
	}
}

// wireProfileNode converts a profile entry for the wire, attaching its
// share of totalCost.
func wireProfileNode(n engine.NodeProfileEntry, totalCost float64) WireProfileNode {
	out := WireProfileNode{
		NodeID:        n.NodeID,
		Label:         n.Label,
		SharedBy:      n.SharedBy,
		Productions:   n.Productions,
		Activations:   n.Activations,
		TokensTested:  n.TokensTested,
		PairsEmitted:  n.PairsEmitted,
		IndexedProbes: n.IndexedProbes,
		Cost:          n.Cost,
	}
	if totalCost > 0 {
		out.CostShare = n.Cost / totalCost
	}
	return out
}

// handleStatusz renders the live sessions as an aligned table, reusing
// the experiment harness's renderer (internal/metrics).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) error {
	infos, err := s.Sessions(r.Context())
	if err != nil {
		return err
	}
	rows := make([][]string, len(infos))
	for i, in := range infos {
		rows[i] = []string{
			in.ID, strconv.Itoa(in.Shard), in.Matcher, in.Strategy,
			strconv.Itoa(in.Productions), strconv.Itoa(in.WMSize),
			strconv.Itoa(in.ConflictSize), strconv.Itoa(in.Cycles),
			strconv.Itoa(in.Fired), strconv.Itoa(in.TotalChanges),
			strconv.FormatBool(in.Halted),
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%d sessions, uptime %s\n\n", len(infos), time.Since(s.start).Round(time.Second))
	fmt.Fprint(w, metrics.Table(
		[]string{"session", "shard", "matcher", "strategy", "prods", "wm", "conflicts", "cycles", "fired", "changes", "halted"},
		rows))
	return nil
}

// sessionResponse converts a SessionInfo for the wire.
func sessionResponse(in SessionInfo) SessionResponse {
	return SessionResponse{
		ID: in.ID, Shard: in.Shard, Matcher: in.Matcher, Strategy: in.Strategy,
		Productions: in.Productions, ParallelFirings: in.ParallelFirings,
		MaxWMEs: in.Quota.MaxWMEs, MaxCycles: in.Quota.MaxCyclesPerRequest,
		WMSize: in.WMSize, ConflictSize: in.ConflictSize,
		Cycles: in.Cycles, Fired: in.Fired, TotalChanges: in.TotalChanges,
		Halted: in.Halted, Requests: in.Requests, AgeSeconds: in.Age.Seconds(),
		TraceSpans: in.TraceSpans, TraceTotal: in.TraceTotal,
		LastCycleSecs: in.LastCycle.Seconds(),
		Clock:         in.Clock, Expired: in.Expired, PendingExpiries: in.PendingExpiries,
		Durable: in.Durable, Recovered: in.Recovered,
		ReplayedRecords: in.ReplayedRecords,
		WALSeq:          in.WALSeq, SnapshotSeq: in.SnapshotSeq,
		WALRecords: in.WALRecords, WALBytes: in.WALBytes, WALError: in.WALError,
	}
}

// wireWME converts a WMEInfo for the wire.
func wireWME(in WMEInfo) WireWME {
	attrs := make(map[string]any, len(in.Attrs))
	for k, v := range in.Attrs {
		attrs[k] = valueToJSON(v)
	}
	return WireWME{Tag: in.Tag, Class: in.Class, Attrs: attrs}
}

// jsonToValue maps a decoded JSON value onto an OPS5 value.
func jsonToValue(v any) (ops5.Value, error) {
	switch x := v.(type) {
	case nil:
		return ops5.Value{}, nil
	case string:
		return ops5.Sym(x), nil
	case float64:
		return ops5.Num(x), nil
	case bool:
		// OPS5 has no booleans; symbols true/false keep round-trips sane.
		return ops5.Sym(strconv.FormatBool(x)), nil
	default:
		return ops5.Value{}, fmt.Errorf("unsupported JSON value %T (want string, number, or null)", v)
	}
}

// valueToJSON maps an OPS5 value onto its JSON representation.
func valueToJSON(v ops5.Value) any {
	switch v.Kind {
	case ops5.SymValue:
		return v.SymName()
	case ops5.NumValue:
		return v.Num
	default:
		return nil
	}
}

// decodeJSON strictly decodes a request body.
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badReqf("bad request body: %v", err)
	}
	return nil
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, status int, body any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(body)
}

// writeError maps service errors onto HTTP statuses and the
// ErrorResponse envelope:
//
//	429 busy (retryable)         404 not_found
//	400 bad_request              409 already_exists
//	413 wm_quota                 503 unavailable (retryable)
//	504 deadline (retryable)     408 canceled
//	500 internal
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	code := "internal"
	retryable := false
	var busy *BusyError
	var badReq *BadRequestError
	switch {
	case errors.As(err, &busy):
		w.Header().Set("Retry-After", strconv.Itoa(int(busy.RetryAfter.Seconds())))
		status, code, retryable = http.StatusTooManyRequests, "busy", true
	case errors.As(err, &badReq):
		status, code = http.StatusBadRequest, "bad_request"
	case errors.Is(err, ErrNoSession):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, ErrSessionExists):
		status, code = http.StatusConflict, "already_exists"
	case errors.Is(err, ErrWMQuota):
		status, code = http.StatusRequestEntityTooLarge, "wm_quota"
	case errors.Is(err, ErrServerClosed):
		status, code, retryable = http.StatusServiceUnavailable, "unavailable", true
	case errors.Is(err, context.DeadlineExceeded):
		status, code, retryable = http.StatusGatewayTimeout, "deadline", true
	case errors.Is(err, context.Canceled):
		status, code = http.StatusRequestTimeout, "canceled"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Code: code, Message: err.Error(), Retryable: retryable})
}
