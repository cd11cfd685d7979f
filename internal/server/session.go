// Package server hosts many independent rule-engine sessions behind a
// sharded, concurrent service: the serving-side counterpart of the
// paper's Production System Machine. Each session runs one compiled
// OPS5 program, shared by every session of the same source text, with
// its own working memory, match memories and conflict set;
// sessions are distributed over a fixed pool of engine shards by
// hash(sessionID), and a request runs a session operation on its own
// goroutine only while it holds its shard's one turn, so all engine and
// working-memory code runs single-threaded per session
// and the paper's per-memory-lock discipline stays inside the parallel
// matcher (internal/prete).
//
// The package exposes both a direct Go API (Server methods) and an HTTP
// JSON API (Server.Handler, served by cmd/psmd) with endpoints to
// create/delete sessions, submit batched working-memory changes, run
// recognize-act cycles, and query the conflict set, working memory and
// serving metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/sym"
)

// The types below with JSON tags are the /v1 request and reply bodies:
// the Go API takes and returns the same structs the HTTP handlers decode
// and encode, so a fact or a report has one representation from the
// wire to the engine (ops5.Value carries its own JSON form).

// Quota bounds a session's resource use so one hot or runaway program
// degrades gracefully instead of starving its shard.
type Quota struct {
	// MaxWMEs caps working-memory size; change batches that would
	// exceed it are rejected whole (0 = unlimited).
	MaxWMEs int `json:"max_wmes,omitempty"`
	// MaxCyclesPerRequest caps the recognize-act cycles a single run
	// request may execute; larger asks are truncated, reported via
	// RunResult.LimitHit (0 = unlimited).
	MaxCyclesPerRequest int `json:"max_cycles_per_request,omitempty"`
}

// CreateSpec describes a session to create: the body of
// POST /v1/sessions. A durable session records it, fully defaulted, as
// its manifest.
type CreateSpec struct {
	// ID names the session; empty means the server assigns one.
	ID string `json:"id,omitempty"`
	// Program is the OPS5 source text (productions plus optional
	// top-level make forms).
	Program string `json:"program"`
	// Matcher selects the match algorithm by name (core.ParseMatcherKind
	// spelling; empty = rete, the parallel matcher on one lane).
	Matcher string `json:"matcher,omitempty"`
	// Strategy selects conflict resolution ("lex" default, or "mea").
	Strategy string `json:"strategy,omitempty"`
	// Workers caps the parallel matcher's lanes (parallel rete only;
	// 0 = the server default, else GOMAXPROCS; never above GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// ParallelFirings fires up to N non-conflicting instantiations per
	// cycle (default 1).
	ParallelFirings int `json:"parallel_firings,omitempty"`
	// Quota overrides the server default when any field is non-zero.
	Quota
}

// manifest is CreateSpec as manifest.json stores it. Like durable's
// wal* types it is an on-disk format: the keys are these untagged Go
// field names in this order, which data directories and cluster peers
// written before CreateSpec carried the /v1 tags already hold.
type manifest struct {
	ID       string
	Program  string
	Matcher  string
	Strategy string
	Workers  int
	// NoSteal turned off work stealing in a scheduler the parallel
	// matcher no longer has. It is decoded and ignored, and written as
	// false, so that older data directories recover and the manifest's
	// bytes do not change.
	NoSteal         bool
	ParallelFirings int
	Quota           struct{ MaxWMEs, MaxCyclesPerRequest int }
}

// encodeManifest renders spec as manifest.json bytes.
func encodeManifest(spec CreateSpec) ([]byte, error) {
	m := manifest{
		ID: spec.ID, Program: spec.Program, Matcher: spec.Matcher, Strategy: spec.Strategy,
		Workers: spec.Workers, ParallelFirings: spec.ParallelFirings,
	}
	m.Quota.MaxWMEs, m.Quota.MaxCyclesPerRequest = spec.MaxWMEs, spec.MaxCyclesPerRequest
	return json.Marshal(m)
}

// decodeManifest is encodeManifest's inverse. It is strict, so a
// manifest in any other spelling is refused rather than recovered with
// the misnamed fields silently zeroed.
func decodeManifest(data []byte) (CreateSpec, error) {
	var m manifest
	if err := decodeStrict(bytes.NewReader(data), &m); err != nil {
		return CreateSpec{}, err
	}
	return CreateSpec{
		ID: m.ID, Program: m.Program, Matcher: m.Matcher, Strategy: m.Strategy,
		Workers: m.Workers, ParallelFirings: m.ParallelFirings,
		Quota: Quota{MaxWMEs: m.Quota.MaxWMEs, MaxCyclesPerRequest: m.Quota.MaxCyclesPerRequest},
	}, nil
}

// session is one hosted production system. It is owned by its shard's
// goroutine: no field is touched from any other goroutine after
// construction.
type session struct {
	id      string
	spec    CreateSpec
	sys     *core.System
	quota   Quota
	created time.Time

	// trace retains the session's most recent cycle spans. The ring is
	// internally locked: spans are added by the shard's turn holder, but
	// the server archives a snapshot at deletion.
	trace *obs.Ring

	// requests counts every operation routed to this session.
	requests int64

	// books is the matcher's scheduler books as of the previous account,
	// so the server-wide series advance by per-operation differences.
	// Every counter in them only grows: a session's matcher lives as
	// long as the session.
	books obs.SchedBooks

	// log is the session's durable state (nil when the server runs
	// without -data-dir). walErrLogged throttles the append-failure
	// warning to once per session.
	log          *durable.Log
	walErrLogged bool
}

// ChangeOp names a working-memory change submitted over the API.
type ChangeOp string

// The two change operations.
const (
	OpAssert  ChangeOp = "assert"
	OpRetract ChangeOp = "retract"
)

// ChangeSpec is one submitted working-memory change: an assert carries
// a class and attributes, a retract the time tag to remove.
type ChangeSpec struct {
	Op    ChangeOp              `json:"op"`
	Class string                `json:"class,omitempty"`
	Attrs map[string]ops5.Value `json:"attrs,omitempty"`
	Tag   int                   `json:"tag,omitempty"`

	// fields holds the attributes when the wire decoder read them (see
	// factFields), in the request's field buffer; the fact asserted
	// from the change takes them over.
	fields []ops5.Field
}

// EventSpec is one streaming-ingest event — one NDJSON line of
// POST /v1/sessions/{id}/stream: an assert of an event fact, optionally
// stamped with an ingest timestamp and a TTL. TS, when set, advances the
// session's logical clock to at least that value before the event lands
// (monotone — out-of-order timestamps never move the clock backward).
// TTL, in logical ticks, is injected as the reserved ^__ttl attribute;
// the engine retracts the fact once the clock passes insert + TTL. Zero
// means no TTL; a negative TTL fails the batch with 400.
type EventSpec struct {
	Class string                `json:"class"`
	Attrs map[string]ops5.Value `json:"attrs,omitempty"`
	TS    int64                 `json:"ts,omitempty"`
	TTL   int                   `json:"ttl,omitempty"`

	// fields is ChangeSpec.fields for an event.
	fields []ops5.Field
}

// factFields returns the fields of the fact a decoded change or event
// asserts: decoded, the attributes as the wire decoder read them, or
// when it did not, attrs's; then extra. ops5.WME.Init sorts the fields
// and keeps the last of a repeated attribute, so extra overrides an
// attribute of its name, and decoded makes the fact attrs would. The
// fact owns the returned slice, which may be decoded's own run of the
// request's field buffer, whose spare field takes an extra of one
// without allocating: a decoded spec asserts one fact, and working
// memory copies the fields out at insert.
func factFields(decoded []ops5.Field, attrs map[string]ops5.Value, extra []ops5.Field) []ops5.Field {
	fields := decoded
	if fields == nil {
		fields = make([]ops5.Field, 0, len(attrs)+len(extra))
		for k, v := range attrs {
			fields = append(fields, ops5.Field{Attr: sym.Intern(k), Val: v})
		}
	}
	return append(fields, extra...)
}

// StreamResult reports applied stream batches: one (StreamApply) or a
// whole connection's (the stream handler sums them). Clock, WMSize and
// ConflictSize reflect the session after the last batch.
type StreamResult struct {
	SessionID string `json:"session_id"`
	// Events is the number of event facts asserted, in Batches batches.
	Events  int `json:"events"`
	Batches int `json:"batches"`
	// Fired and Cycles count the recognize-act work the batches triggered.
	Fired  int `json:"fired"`
	Cycles int `json:"cycles"`
	// Expired is the number of event facts the engine retracted by TTL
	// (clock advance plus triggered cycles).
	Expired int `json:"expired"`
	// Clock is the session's logical clock.
	Clock        int64 `json:"clock"`
	WMSize       int   `json:"wm_size"`
	ConflictSize int   `json:"conflict_size"`
}

// ApplyResult reports a committed change batch.
type ApplyResult struct {
	// Applied is the number of changes committed.
	Applied int `json:"applied"`
	// Tags holds the time tags assigned to asserts, in submission
	// order (retracts contribute no entry).
	Tags []int `json:"tags,omitempty"`
	// WMSize and ConflictSize snapshot the session after the batch.
	WMSize       int `json:"wm_size"`
	ConflictSize int `json:"conflict_size"`
}

// RunResult reports a run-cycles request.
type RunResult struct {
	// Cycles is the number of recognize-act cycles executed.
	Cycles int `json:"cycles"`
	// Fired is the number of production firings during those cycles.
	Fired int `json:"fired"`
	// Halted reports whether the program executed (halt).
	Halted bool `json:"halted"`
	// Quiesced reports whether the run stopped because no production
	// could fire.
	Quiesced bool `json:"quiesced"`
	// LimitHit reports that the cycle cap (requested or quota) stopped
	// the run before quiescence or halt.
	LimitHit bool `json:"limit_hit"`
	// WMSize and ConflictSize snapshot the session after the run.
	WMSize       int `json:"wm_size"`
	ConflictSize int `json:"conflict_size"`
}

// SessionInfo is a session's externally visible state.
type SessionInfo struct {
	ID              string `json:"id"`
	Shard           int    `json:"shard"`
	Matcher         string `json:"matcher"`
	Strategy        string `json:"strategy"`
	Productions     int    `json:"productions"`
	ParallelFirings int    `json:"parallel_firings,omitempty"`
	Quota
	WMSize       int     `json:"wm_size"`
	ConflictSize int     `json:"conflict_size"`
	Cycles       int     `json:"cycles"`
	Fired        int     `json:"fired"`
	TotalChanges int     `json:"total_changes"`
	Halted       bool    `json:"halted"`
	Requests     int64   `json:"requests"`
	AgeSeconds   float64 `json:"age_seconds"`
	// TraceSpans and TraceTotal summarise the session's trace ring
	// (buffered spans and spans ever recorded); LastCycleSeconds is the
	// most recent span's total duration.
	TraceSpans       int     `json:"trace_spans"`
	TraceTotal       int64   `json:"trace_total"`
	LastCycleSeconds float64 `json:"last_cycle_seconds,omitempty"`
	// Clock is the session's logical clock; Expired counts TTL
	// retractions over its lifetime, and PendingExpiries the live event
	// facts still awaiting their deadline.
	Clock           int64 `json:"clock,omitempty"`
	Expired         int   `json:"expired,omitempty"`
	PendingExpiries int   `json:"pending_expiries,omitempty"`
	// Durable reports whether the session has a write-ahead log (the
	// server runs with -data-dir); Recovered that this incarnation was
	// rebuilt from disk, replaying ReplayedRecords WAL records past its
	// snapshot. WALSeq / SnapshotSeq / WALRecords / WALBytes describe
	// the live log, and WALError carries the first append failure
	// (durability degraded).
	Durable         bool   `json:"durable,omitempty"`
	Recovered       bool   `json:"recovered,omitempty"`
	ReplayedRecords int64  `json:"replayed_records,omitempty"`
	WALSeq          int64  `json:"wal_seq,omitempty"`
	SnapshotSeq     int64  `json:"snapshot_seq,omitempty"`
	WALRecords      int64  `json:"wal_records,omitempty"`
	WALBytes        int64  `json:"wal_bytes,omitempty"`
	WALError        string `json:"wal_error,omitempty"`
}

// InstInfo describes one conflict-set instantiation.
type InstInfo struct {
	// Production is the satisfied production's name.
	Production string `json:"production"`
	// Key is the canonical identity (production plus time tags).
	Key string `json:"key"`
	// WMEs are the matched working-memory elements in LHS order
	// (negated condition elements contribute no entry).
	WMEs []WMEInfo `json:"wmes"`
}

// WMEInfo describes one working-memory element.
type WMEInfo struct {
	Tag   int                   `json:"tag"`
	Class string                `json:"class"`
	Attrs map[string]ops5.Value `json:"attrs"`
}

// Typed service errors, mapped onto HTTP statuses by the handler layer.
var (
	// ErrNoSession reports an unknown session ID.
	ErrNoSession = errors.New("server: no such session")
	// ErrSessionExists reports a create with an ID already in use.
	ErrSessionExists = errors.New("server: session already exists")
	// ErrWMQuota reports a change batch that would exceed the session's
	// working-memory quota.
	ErrWMQuota = errors.New("server: working-memory quota exceeded")
	// ErrServerClosed reports an operation on a closed server.
	ErrServerClosed = errors.New("server: closed")
)

// BusyError reports a shard that already has Config.QueueDepth callers
// waiting for its turn — the backpressure signal behind HTTP 429. Its
// message text is part of the frozen /v1 replies.
type BusyError struct {
	// Shard is the full shard's index.
	Shard int
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

// Error describes the full shard.
func (e *BusyError) Error() string {
	return fmt.Sprintf("server: shard %d mailbox full, retry after %s", e.Shard, e.RetryAfter)
}

// BadRequestError wraps a client-input problem (unknown matcher, bad
// retract tag, program errors) so the HTTP layer can answer 400 without
// string matching.
type BadRequestError struct{ Err error }

// Error returns the wrapped message.
func (e *BadRequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped error.
func (e *BadRequestError) Unwrap() error { return e.Err }

// badReqf builds a BadRequestError from a format string.
func badReqf(format string, args ...any) error {
	return &BadRequestError{Err: fmt.Errorf(format, args...)}
}

// newSession builds a live session from a CreateSpec over the compiled
// program the server's table holds for its source. It runs on the
// caller's goroutine (compiling a new source is the expensive part and
// must not serialize a shard); ownership passes to the shard when the
// session is registered. noInitialWM builds the system with an empty
// working memory — the crash-recovery path, where the snapshot being
// restored already contains the program's initial state.
func (s *Server) newSession(spec CreateSpec, noInitialWM bool) (*session, error) {
	kind := core.SerialRete
	if spec.Matcher != "" {
		var err error
		if kind, err = core.ParseMatcherKind(spec.Matcher); err != nil {
			return nil, &BadRequestError{Err: err}
		}
	}
	strategy := conflict.LEX
	if spec.Strategy != "" {
		var err error
		if strategy, err = conflict.ParseStrategy(spec.Strategy); err != nil {
			return nil, &BadRequestError{Err: err}
		}
	}
	quota := spec.Quota
	if quota == (Quota{}) {
		quota = s.cfg.DefaultQuota
	}
	opts := core.Options{
		Matcher:         kind,
		Strategy:        strategy,
		Workers:         spec.Workers,
		ParallelFirings: spec.ParallelFirings,
		NoInitialWM:     noInitialWM,
	}
	var sys *core.System
	prog, plan, err := s.programs.get(spec.Program)
	if err == nil || (prog != nil && kind == core.Naive) {
		// The naive matcher runs some programs Rete cannot compile (a
		// variable a predicate tests before any equality binds it).
		sys, err = core.NewSystemOnPlan(prog, plan, opts)
	}
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	if quota.MaxWMEs > 0 && sys.WM.Size() > quota.MaxWMEs {
		return nil, badReqf("server: initial working memory (%d elements) exceeds quota %d",
			sys.WM.Size(), quota.MaxWMEs)
	}
	return &session{id: spec.ID, spec: spec, sys: sys, quota: quota, created: time.Now()}, nil
}

// apply validates and commits one change batch, owned-goroutine only.
// A retract may target an element asserted earlier in the same batch:
// working memory assigns time tags deterministically (arrival order),
// so the tag of the k-th assert is predictable and the delete resolves
// to the pending element.
func (s *session) apply(specs []ChangeSpec) (ApplyResult, error) {
	changes := make([]ops5.Change, 0, len(specs))
	asserts := 0
	retracted := make(map[int]bool, len(specs))
	pending := make(map[int]*ops5.WME) // predicted tag -> WME asserted this batch
	nextTag := s.sys.WM.NextTag()
	for i, c := range specs {
		switch c.Op {
		case OpAssert:
			if c.Class == "" {
				return ApplyResult{}, badReqf("server: change %d: assert needs a class", i)
			}
			w := s.sys.WM.Carve().Init(sym.Intern(c.Class), factFields(c.fields, c.Attrs, nil))
			pending[nextTag] = w
			nextTag++
			changes = append(changes, ops5.Change{Kind: ops5.Insert, WME: w})
			asserts++
		case OpRetract:
			w, ok := s.sys.WM.Get(c.Tag)
			if !ok {
				w, ok = pending[c.Tag]
			}
			if !ok || retracted[c.Tag] {
				return ApplyResult{}, badReqf("server: change %d: no working-memory element with tag %d", i, c.Tag)
			}
			retracted[c.Tag] = true
			changes = append(changes, ops5.Change{Kind: ops5.Delete, WME: w})
		default:
			return ApplyResult{}, badReqf("server: change %d: unknown op %q (assert|retract)", i, c.Op)
		}
	}
	if s.quota.MaxWMEs > 0 && s.sys.WM.Size()+asserts-len(retracted) > s.quota.MaxWMEs {
		return ApplyResult{}, fmt.Errorf("%w: %d elements + %d asserts - %d retracts > %d",
			ErrWMQuota, s.sys.WM.Size(), asserts, len(retracted), s.quota.MaxWMEs)
	}
	s.sys.ApplyChanges(changes)
	res := ApplyResult{
		Applied:      len(changes),
		WMSize:       s.sys.WM.Size(),
		ConflictSize: s.sys.CS.Len(),
	}
	for _, ch := range changes {
		if ch.Kind == ops5.Insert {
			res.Tags = append(res.Tags, ch.WME.TimeTag)
		}
	}
	return res, nil
}

// ingest commits one streaming event batch, owned-goroutine only:
// advance the logical clock to the batch's newest timestamp (expiring
// whatever comes due), assert the events with their TTLs injected, then
// run recognize-act cycles to quiescence (bounded by the session's
// per-request cycle quota and the request deadline). One batch is one
// continuous Apply wave — the traffic shape streaming adds over the
// batch API. Once the events are committed, the result (Batches 1)
// comes back even beside an error from the cycles: the batch stays
// applied.
func (s *session) ingest(ctx context.Context, events []EventSpec) (StreamResult, error) {
	eng := s.sys.Engine
	var maxTS int64
	changes := make([]ops5.Change, 0, len(events))
	for i, ev := range events {
		if ev.Class == "" {
			return StreamResult{}, badReqf("server: event %d: missing class", i)
		}
		if ev.TTL < 0 {
			return StreamResult{}, badReqf("server: event %d: negative ttl %d", i, ev.TTL)
		}
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
		var ttl []ops5.Field
		if ev.TTL > 0 {
			ttl = []ops5.Field{{Attr: ops5.TTLAttr, Val: ops5.Num(float64(ev.TTL))}}
		}
		w := s.sys.WM.Carve().Init(sym.Intern(ev.Class), factFields(ev.fields, ev.Attrs, ttl))
		changes = append(changes, ops5.Change{Kind: ops5.Insert, WME: w})
	}
	if s.quota.MaxWMEs > 0 && s.sys.WM.Size()+len(changes) > s.quota.MaxWMEs {
		return StreamResult{}, fmt.Errorf("%w: %d elements + %d events > %d",
			ErrWMQuota, s.sys.WM.Size(), len(changes), s.quota.MaxWMEs)
	}
	firedBefore, cyclesBefore, expiredBefore := eng.Fired, eng.Cycles, eng.Expired
	eng.AdvanceClock(maxTS)
	s.sys.ApplyChanges(changes)
	_, err := eng.RunContext(ctx, s.quota.MaxCyclesPerRequest)
	if errors.Is(err, engine.ErrCycleLimit) {
		err = nil
	}
	return StreamResult{
		SessionID:    s.id,
		Events:       len(changes),
		Batches:      1,
		Fired:        eng.Fired - firedBefore,
		Cycles:       eng.Cycles - cyclesBefore,
		Expired:      eng.Expired - expiredBefore,
		Clock:        eng.Clock,
		WMSize:       s.sys.WM.Size(),
		ConflictSize: s.sys.CS.Len(),
	}, err
}

// info snapshots the session, owned-goroutine only.
func (s *session) info(shard int, now time.Time) SessionInfo {
	info := SessionInfo{
		ID:              s.id,
		Shard:           shard,
		Matcher:         s.sys.MatcherKind().String(),
		Strategy:        s.sys.CS.Strategy().String(),
		Productions:     len(s.sys.Productions()),
		ParallelFirings: s.spec.ParallelFirings,
		Quota:           s.quota,
		WMSize:          s.sys.WM.Size(),
		ConflictSize:    s.sys.CS.Len(),
		Cycles:          s.sys.Cycles,
		Fired:           s.sys.Fired,
		TotalChanges:    s.sys.TotalChanges,
		Halted:          s.sys.Halted,
		Requests:        s.requests,
		AgeSeconds:      now.Sub(s.created).Seconds(),
		Clock:           s.sys.Engine.Clock,
		Expired:         s.sys.Engine.Expired,
		PendingExpiries: s.sys.Engine.PendingExpiries(),
	}
	if s.trace != nil {
		info.TraceSpans = s.trace.Len()
		info.TraceTotal = s.trace.Total()
		if sp, ok := s.trace.Last(); ok {
			info.LastCycleSeconds = sp.Total().Seconds()
		}
	}
	if s.log != nil {
		info.Durable = true
		info.Recovered, info.ReplayedRecords = s.log.Recovered()
		info.WALSeq, info.SnapshotSeq, info.WALRecords, info.WALBytes = s.log.Stats()
		if err := s.log.Err(); err != nil {
			info.WALError = err.Error()
		}
	}
	return info
}

// wmeInfo describes one WME by attribute name.
func wmeInfo(w *ops5.WME) WMEInfo {
	fields := w.Fields()
	attrs := make(map[string]ops5.Value, len(fields))
	for _, f := range fields {
		attrs[sym.Name(f.Attr)] = f.Val
	}
	return WMEInfo{Tag: w.TimeTag, Class: w.Class(), Attrs: attrs}
}
