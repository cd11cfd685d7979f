package layers

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/benchmark/loadgen"
	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/sym"
)

// stepKind is what one recorded request asks for.
type stepKind uint8

const (
	stepCreate stepKind = iota
	stepChanges
	stepRun
	stepStream
	stepGet
	stepDelete
)

// step is one recorded request, decoded once so that every depth can
// replay it without paying for the decode inside its timed region: the
// raw request for the HTTP handler (depth 0), specs for the server's Go
// API (depth 1), and interned facts for the engine (depth 2).
type step struct {
	op   int // operation the request belongs to; -1 during set-up
	kind stepKind
	id   string
	req  loadgen.Request
	// status and the sizes psmd answered at depth 0; the deeper replays
	// must arrive at the same sizes.
	status       int
	wmSize, conf int

	create  server.CreateSpec
	changes []server.ChangeSpec
	events  []server.EventSpec
	cycles  int
	facts   []fact // depth 2: one per change or event
	maxTS   int64  // depth 2, stream: the chunk's newest timestamp
}

// fact is one change ready for the engine: an assert's class and
// fields with every name interned, or a retract's tag.
type fact struct {
	retract int
	class   sym.ID
	fields  []ops5.Field
}

// recorder is the Caller of the recording pass: it serves each request
// from the in-process handler and keeps request and reply.
type recorder struct {
	h     http.Handler
	op    int
	steps []step
	err   error
}

func (r *recorder) Call(req loadgen.Request) (int, []byte, error) {
	req.Body = append([]byte(nil), req.Body...) // plans reuse their buffers
	status, body := serve(r.h, req)
	st, err := decodeStep(req, r.op, status, body)
	if err != nil && r.err == nil {
		r.err = err
	}
	r.steps = append(r.steps, st)
	return status, body, nil
}

// serve runs one request through the handler, no network involved.
func serve(h http.Handler, req loadgen.Request) (int, []byte) {
	hr := httptest.NewRequest(req.Method, req.Path, bytes.NewReader(req.Body))
	if req.ContentType != "" {
		hr.Header.Set("Content-Type", req.ContentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes()
}

const sessionsPrefix = "/v1/sessions"

// decodeStep turns a recorded request and its reply into a step.
func decodeStep(req loadgen.Request, op, status int, reply []byte) (step, error) {
	st := step{op: op, req: req, status: status}
	rest := strings.TrimPrefix(req.Path, sessionsPrefix)
	if rest == req.Path {
		return st, fmt.Errorf("trace: unexpected path %s", req.Path)
	}
	var verb string
	st.id, verb, _ = strings.Cut(strings.TrimPrefix(rest, "/"), "/")
	var sizes struct {
		WMSize       int `json:"wm_size"`
		ConflictSize int `json:"conflict_size"`
	}
	if len(reply) > 0 && status/100 == 2 {
		if err := json.Unmarshal(reply, &sizes); err != nil {
			return st, fmt.Errorf("trace: %s %s: reply: %w", req.Method, req.Path, err)
		}
	}
	st.wmSize, st.conf = sizes.WMSize, sizes.ConflictSize
	switch {
	case req.Method == "POST" && st.id == "":
		st.kind = stepCreate
		var body struct {
			ID, Program, Matcher string
			Workers              int
		}
		if err := json.Unmarshal(req.Body, &body); err != nil {
			return st, fmt.Errorf("trace: create body: %w", err)
		}
		st.id = body.ID
		st.create = server.CreateSpec{ID: body.ID, Program: body.Program, Matcher: body.Matcher, Workers: body.Workers}
	case req.Method == "POST" && verb == "changes":
		st.kind = stepChanges
		var body struct {
			Changes []struct {
				Op, Class string
				Attrs     map[string]any
				Tag       int
			}
		}
		if err := json.Unmarshal(req.Body, &body); err != nil {
			return st, fmt.Errorf("trace: changes body: %w", err)
		}
		for _, c := range body.Changes {
			attrs, fields := convertAttrs(c.Attrs)
			st.changes = append(st.changes, server.ChangeSpec{Op: server.ChangeOp(c.Op), Class: c.Class, Attrs: attrs, Tag: c.Tag})
			if c.Op == string(server.OpRetract) {
				st.facts = append(st.facts, fact{retract: c.Tag})
			} else {
				st.facts = append(st.facts, fact{class: sym.Intern(c.Class), fields: fields})
			}
		}
	case req.Method == "POST" && verb == "run":
		st.kind = stepRun
		var body struct{ Cycles int }
		if err := json.Unmarshal(req.Body, &body); err != nil {
			return st, fmt.Errorf("trace: run body: %w", err)
		}
		st.cycles = body.Cycles
	case req.Method == "POST" && verb == "stream":
		st.kind = stepStream
		sc := bufio.NewScanner(bytes.NewReader(req.Body))
		for sc.Scan() {
			var ev struct {
				Class string
				Attrs map[string]any
				TS    int64
				TTL   int
			}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return st, fmt.Errorf("trace: stream line: %w", err)
			}
			attrs, fields := convertAttrs(ev.Attrs)
			st.events = append(st.events, server.EventSpec{Class: ev.Class, Attrs: attrs, TS: ev.TS, TTL: ev.TTL})
			if ev.TTL > 0 {
				fields = append(fields, ops5.Field{Attr: ops5.TTLAttr, Val: ops5.Num(float64(ev.TTL))})
			}
			st.facts = append(st.facts, fact{class: sym.Intern(ev.Class), fields: fields})
			st.maxTS = max(st.maxTS, ev.TS)
		}
	case req.Method == "GET" && verb == "":
		st.kind = stepGet
	case req.Method == "DELETE" && verb == "":
		st.kind = stepDelete
	default:
		return st, fmt.Errorf("trace: unexpected request %s %s", req.Method, req.Path)
	}
	return st, nil
}

// convertAttrs maps decoded JSON attributes onto OPS5 values the way
// psmd's handler does (string = symbol, number = number), both as the
// map the server API takes and as interned fields for the engine.
func convertAttrs(in map[string]any) (map[string]ops5.Value, []ops5.Field) {
	if len(in) == 0 {
		return nil, nil
	}
	attrs := make(map[string]ops5.Value, len(in))
	fields := make([]ops5.Field, 0, len(in)+1)
	for k, v := range in {
		var val ops5.Value
		switch x := v.(type) {
		case string:
			val = ops5.Sym(x)
		case float64:
			val = ops5.Num(x)
		}
		attrs[k] = val
		fields = append(fields, ops5.Field{Attr: sym.Intern(k), Val: val})
	}
	return attrs, fields
}
