package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// The /v1 request and reply bodies are the Go API's own structs —
// CreateSpec, ChangeSpec, EventSpec, ApplyResult, RunResult,
// StreamResult, SessionInfo, WMEInfo, InstInfo (session.go),
// TraceResult, ProfileResult, LossResult (observe.go), SnapshotResult —
// and the matcher reports of internal/obs, each carrying its JSON tags.
// OPS5 values map onto JSON naturally (ops5.Value): numbers stay
// numbers, symbols are strings, nil is null. Only the two request
// envelopes and the error envelope are declared here.

// ChangesRequest is the body of POST /sessions/{id}/changes.
type ChangesRequest struct {
	Changes []ChangeSpec `json:"changes"`
}

// RunRequest is the body of POST /sessions/{id}/run.
type RunRequest struct {
	Cycles int `json:"cycles,omitempty"` // 0 = until quiescence/halt/quota
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

// ReplyError is an error that names its own reply: the status and
// envelope the cluster layer answers with (a 307 to the owning node, a
// failed proxy hop, a replication conflict, a session failing over),
// and what a node reads back from a peer's non-2xx reply.
type ReplyError struct {
	Status int
	ErrorResponse
}

func (e *ReplyError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Status, e.Code, e.Message)
}

// apiFunc is a route handler; a returned error becomes the reply
// through writeError.
type apiFunc func(w http.ResponseWriter, r *http.Request) error

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
//	GET    /v1/cluster/status          membership and replication (cluster mode)
//	...    /v1/internal/...            the intra-cluster protocol (cluster mode)
//
// /metrics, /statusz, /healthz and /debug/pprof are operational
// endpoints and stay unversioned. With a Replicator (internal/cluster)
// every session route is placed first, and the cluster routes are the
// Replicator's.
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
	h := func(fn apiFunc) http.HandlerFunc {
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
	// api registers pattern ("METHOD /path") under /v1, placed.
	api := func(pattern string, fn apiFunc) {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			panic("server: route pattern must be \"METHOD /path\": " + pattern)
		}
		mux.HandleFunc(method+" "+APIVersion+path, h(s.placed(fn)))
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
	// The cluster's own routes name replicas or the node, not sessions
	// to place.
	if rep := s.cfg.Replicator; rep != nil {
		mux.HandleFunc("GET /v1/cluster/status", h(rep.ServeStatus))
		mux.HandleFunc("GET /v1/internal/ping", h(rep.ServePing))
		mux.HandleFunc("POST /v1/internal/replicate/{id}/snapshot", h(rep.ServeReplicaSnapshot))
		mux.HandleFunc("POST /v1/internal/replicate/{id}/records", h(rep.ServeReplicaRecords))
		mux.HandleFunc("DELETE /v1/internal/replicate/{id}", h(rep.ServeReplicaDelete))
		mux.HandleFunc("POST /v1/internal/promote/{id}", h(rep.ServePromote))
	}
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

// placed puts cluster placement in front of a session route: a request
// naming a session this node does not serve is redirected or proxied
// to the node that does, or refused while the session fails over
// (Replicator.Place). Without a Replicator it is fn itself.
func (s *Server) placed(fn apiFunc) apiFunc {
	rep := s.cfg.Replicator
	if rep == nil {
		return fn
	}
	return func(w http.ResponseWriter, r *http.Request) error {
		id := r.PathValue("id")
		if id == "" {
			return fn(w, r)
		}
		return rep.Place(w, r, id, false, func() error { return fn(w, r) })
	}
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
		// The mux fills the matched route's path values into the request
		// it is handed, so the log line names the session the route did.
		r = r.WithContext(ctx)
		next.ServeHTTP(rec, r)

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
		if id := r.PathValue("id"); id != "" {
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
// request logs belong at debug level (the cluster heartbeat included).
func operational(path string) bool {
	return path == "/metrics" || path == "/healthz" || path == "/readyz" ||
		path == "/statusz" || path == "/v1/internal/ping" || strings.HasPrefix(path, "/debug/pprof")
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) error {
	var spec CreateSpec
	if err := decodeJSON(w, r, &spec); err != nil {
		return err
	}
	create := func() error {
		info, err := s.CreateSession(r.Context(), spec)
		if err != nil {
			return err
		}
		return WriteJSON(w, http.StatusCreated, info)
	}
	rep := s.cfg.Replicator
	if rep == nil {
		return create()
	}
	// Placement needs the ID, so it follows the strict decode; the body
	// is re-encoded for a proxy hop. An ID generated here is pinned to a
	// proxy hop: a redirected client could not know it.
	pinned := spec.ID == ""
	if pinned {
		spec.ID = rep.NewSessionID()
	}
	body, _ := json.Marshal(spec) // strings, ints and bools always encode
	r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	return rep.Place(w, r, spec.ID, pinned, create)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	infos, err := s.Sessions(r.Context())
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, infos)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	info, err := s.SessionStats(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, info)
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
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	res, err := s.Apply(r.Context(), r.PathValue("id"), req.Changes)
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) error {
	var req RunRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	res, err := s.RunCycles(r.Context(), r.PathValue("id"), req.Cycles)
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, res)
}

// streamBatchSize is how many NDJSON events one shard dispatch carries:
// large enough to amortize the mailbox round trip, small enough that a
// slow rule pack yields the shard to other tenants between batches.
const streamBatchSize = 256

// streamMaxLine bounds one NDJSON line (1 MiB).
const streamMaxLine = 1 << 20

// handleStream ingests a chunked NDJSON event stream: one JSON object
// per line (EventSpec), applied in batches of streamBatchSize, each
// batch one shard dispatch that advances the clock, expires due events,
// asserts the new ones, and cycles to quiescence. Backpressure is
// connection-level: a full shard mailbox fails the stream with the
// standard 429 busy envelope plus Retry-After, and any mid-stream
// failure carries X-Stream-Events-Applied so the client can resume from
// the first unapplied event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	out := StreamResult{SessionID: id}
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
		out.Batches += res.Batches
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
		var ev EventSpec
		if err := decodeStrict(bytes.NewReader(raw), &ev); err != nil {
			return fail(badReqf("stream line %d: %v", line, err))
		}
		batch = append(batch, ev)
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
	return WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	res, err := s.Snapshot(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleConflicts(w http.ResponseWriter, r *http.Request) error {
	insts, err := s.Conflicts(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, insts)
}

func (s *Server) handleWM(w http.ResponseWriter, r *http.Request) error {
	wmes, err := s.WM(r.Context(), r.PathValue("id"), r.URL.Query().Get("class"))
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, wmes)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) error {
	tr, err := s.Trace(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, tr)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) error {
	res, err := s.Profile(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	if v := r.URL.Query().Get("top"); v != "" {
		top, err := strconv.Atoi(v)
		if err != nil || top < 0 {
			return badReqf("bad top parameter %q: want a non-negative integer", v)
		}
		if top > 0 && len(res.Nodes) > top {
			res.Truncated = len(res.Nodes) - top
			res.Nodes = res.Nodes[:top]
		}
	}
	return WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleLoss(w http.ResponseWriter, r *http.Request) error {
	res, err := s.Loss(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	return WriteJSON(w, http.StatusOK, res)
}

// handleStatusz renders the live sessions as an aligned table.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) error {
	infos, err := s.Sessions(r.Context())
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%d sessions, uptime %s\n\n", len(infos), time.Since(s.start).Round(time.Second))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "session\tshard\tmatcher\tstrategy\tprods\twm\tconflicts\tcycles\tfired\tchanges\thalted")
	for _, in := range infos {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%t\n",
			in.ID, in.Shard, in.Matcher, in.Strategy, in.Productions, in.WMSize,
			in.ConflictSize, in.Cycles, in.Fired, in.TotalChanges, in.Halted)
	}
	return tw.Flush()
}

// maxBodyBytes bounds a JSON request body (8 MiB; the largest body any
// tracked workload sends is a 67 KB create). /stream bodies are
// unbounded by design — they are bounded per line, by streamMaxLine.
const maxBodyBytes = 8 << 20

// ErrBodyTooLarge reports a request body past maxBodyBytes.
var ErrBodyTooLarge = errors.New("server: request body too large")

// decodeJSON decodes a request body of at most maxBodyBytes, strictly.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), dst)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooLarge):
		return fmt.Errorf("%w: limit %d bytes", ErrBodyTooLarge, tooLarge.Limit)
	default:
		return badReqf("bad request body: %v", err)
	}
}

// decodeStrict decodes exactly one JSON value from rd into dst: an
// unknown field is an error, and so is anything but whitespace after
// the value.
func decodeStrict(rd io.Reader, dst any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("unexpected data after the JSON value")
	default:
		return err
	}
}

// WriteJSON writes a JSON response. The body is encoded before the
// status line goes out, so a value that cannot be encoded is reported as
// an error envelope instead of following a 200.
func WriteJSON(w http.ResponseWriter, status int, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A write error means the client is gone; there is no one to tell.
	w.Write(append(buf, '\n'))
	return nil
}

// writeError maps service errors onto HTTP statuses and the
// ErrorResponse envelope:
//
//	429 busy (retryable)         404 not_found
//	400 bad_request              409 already_exists
//	413 wm_quota, too_large      503 unavailable (retryable)
//	504 deadline (retryable)     408 canceled
//	500 internal
//
// plus whatever a *ReplyError names (the cluster's 307, 409, 502, 503).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	code, msg := "internal", err.Error()
	retryable := false
	var busy *BusyError
	var badReq *BadRequestError
	var reply *ReplyError
	switch {
	case errors.As(err, &reply):
		status, code, msg, retryable = reply.Status, reply.Code, reply.Message, reply.Retryable
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
	case errors.Is(err, ErrBodyTooLarge):
		status, code = http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, ErrServerClosed):
		status, code, retryable = http.StatusServiceUnavailable, "unavailable", true
	case errors.Is(err, context.DeadlineExceeded):
		status, code, retryable = http.StatusGatewayTimeout, "deadline", true
	case errors.Is(err, context.Canceled):
		status, code = http.StatusRequestTimeout, "canceled"
	}
	WriteJSON(w, status, ErrorResponse{Code: code, Message: msg, Retryable: retryable})
}
