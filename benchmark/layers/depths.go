package layers

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro/internal/conflict"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
	"repro/internal/server"
	"repro/internal/wm"
)

// Depth names, outermost first.
const (
	depthHTTP   = "d0.http"    // the HTTP handler, in-process
	depthServer = "d1.server"  // server's Go API
	depthEngine = "d2.engine"  // engine assembled from the leaf packages
	depthTraced = "d2i.engine" // the same with spans around every leaf call
)

// Layer names are package names.
const (
	layerServer   = "server"
	layerOps5     = "ops5"
	layerWM       = "wm"
	layerRete     = "rete"
	layerPrete    = "prete"
	layerConflict = "conflict"
	layerEngine   = "engine"
	layerDurable  = "durable"
)

// env is what every depth of one traced run shares.
type env struct {
	durable bool
	workDir string
	dirs    int // data directories handed out so far
}

// dataDir returns a fresh directory for one depth's durable state.
func (e *env) dataDir() (string, error) {
	e.dirs++
	dir := filepath.Join(e.workDir, fmt.Sprintf("trace-data-%d", e.dirs))
	return dir, os.RemoveAll(dir)
}

// serverConfig is psmd's default configuration, plus the durable
// workload's flags. psmd logs every request at info level; the logger
// here formats the same lines and discards them.
func (e *env) serverConfig() (server.Config, string, error) {
	cfg := server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if !e.durable {
		return cfg, "", nil
	}
	dir, err := e.dataDir()
	if err != nil {
		return cfg, "", err
	}
	cfg.DataDir, cfg.Fsync, cfg.SnapshotEvery = dir, durable.FsyncInterval, durableSnapshotEvery
	return cfg, dir, nil
}

// durableSnapshotEvery mirrors loadgen.DurableArgs (-snapshot-every).
const durableSnapshotEvery = 1024

// depthRun is what one replay of the recorded steps at one depth
// measured.
type depthRun struct {
	total   time.Duration // over the operations, set-up excluded
	checked int           // replies compared with depth 0
	errs    []error
}

func (r *depthRun) check(st *step, what string, wmSize, conf int) {
	r.checked++
	if wmSize != st.wmSize || conf != st.conf {
		r.errs = append(r.errs, fmt.Errorf("%s: op %d %s: wm_size %d conflict_size %d, depth 0 answered %d and %d",
			what, st.op, st.req.Path, wmSize, conf, st.wmSize, st.conf))
	}
}

// timed runs fn inside a span and adds its duration to the run's total
// when the step belongs to an operation.
func (r *depthRun) timed(log *spanLog, st *step, depth, name, layer string, fn func(span int)) {
	id := log.begin(0, st.op, depth, name, layer)
	fn(id)
	log.end(id)
	if st.op >= 0 {
		s := log.spans[id-1]
		r.total += time.Duration(s.EndNs - s.StartNs)
	}
}

// runHTTP replays the steps through the HTTP handler.
func runHTTP(e *env, steps []step, log *spanLog) (*depthRun, error) {
	cfg, dir, err := e.serverConfig()
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	defer os.RemoveAll(dir)
	defer srv.Close()
	h := srv.Handler()
	run := &depthRun{}
	for i := range steps {
		st := &steps[i]
		var status int
		run.timed(log, st, depthHTTP, st.req.Method+" "+st.req.Path, layerServer, func(int) {
			status, _ = serve(h, st.req)
		})
		run.checked++
		if status != st.status {
			run.errs = append(run.errs, fmt.Errorf("%s: op %d %s: status %d, recorded %d", depthHTTP, st.op, st.req.Path, status, st.status))
		}
	}
	return run, nil
}

// runServer replays the steps through the server's Go API, already
// decoded.
func runServer(e *env, steps []step, log *spanLog) (*depthRun, error) {
	cfg, dir, err := e.serverConfig()
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	defer os.RemoveAll(dir)
	defer srv.Close()
	ctx := context.Background()
	run := &depthRun{}
	for i := range steps {
		st := &steps[i]
		var err error
		switch st.kind {
		case stepCreate:
			run.timed(log, st, depthServer, "CreateSession", layerServer, func(int) {
				_, err = srv.CreateSession(ctx, st.create)
			})
		case stepChanges:
			var res server.ApplyResult
			run.timed(log, st, depthServer, "Apply", layerServer, func(int) {
				res, err = srv.Apply(ctx, st.id, st.changes)
			})
			run.check(st, depthServer, res.WMSize, res.ConflictSize)
		case stepRun:
			var res server.RunResult
			run.timed(log, st, depthServer, "RunCycles", layerServer, func(int) {
				res, err = srv.RunCycles(ctx, st.id, st.cycles)
			})
			run.check(st, depthServer, res.WMSize, res.ConflictSize)
		case stepStream:
			var res server.StreamResult
			run.timed(log, st, depthServer, "StreamApply", layerServer, func(int) {
				res, err = srv.StreamApply(ctx, st.id, st.events)
			})
			run.check(st, depthServer, res.WMSize, res.ConflictSize)
		case stepDelete:
			run.timed(log, st, depthServer, "DeleteSession", layerServer, func(int) {
				err = srv.DeleteSession(ctx, st.id)
			})
		case stepGet:
			// Reading counters is the HTTP depth's alone.
		}
		if err != nil {
			return nil, fmt.Errorf("%s: op %d %s: %w", depthServer, st.op, st.req.Path, err)
		}
	}
	return run, nil
}

// session is one engine assembled directly from the leaf packages —
// what core.NewSystem builds for psmd, without going through it.
type session struct {
	id      string
	prods   []*ops5.Production
	eng     *engine.Engine
	net     *rete.Network  // serial rete
	pm      *prete.Matcher // parallel rete
	log     *durable.Log
	dir     string
	live    map[int]*ops5.WME // client-asserted elements by tag, for retracts
	parse   time.Duration
	compile time.Duration
	script  *script // instrumented run only
}

// netMatcher adapts *rete.Network to engine.Matcher.
type netMatcher struct{ net *rete.Network }

func (m netMatcher) Apply(changes []ops5.Change) { m.net.Apply(changes) }

// engineRun is one replay at the engine depth.
type engineRun struct {
	depthRun
	env      *env
	depth    string
	log      *spanLog
	traced   bool
	sessions map[string]*session
	all      []*session // every session created, in order
	// Time inside RunContext and AdvanceClock calls, for the per-cycle
	// and per-event engine metrics, with the matcher and log-append time
	// that fell inside them (instrumented run only).
	// Set-up steps are not counted.
	runNs, runInnerNs       int64
	advanceNs, advanceInner int64
	cycles, events, expired int
	inOp                    bool // the current step belongs to an operation
}

// runEngine replays the steps against engines built from the leaf
// packages. With traced set, every matcher batch, log append, parse and
// compile gets its own span, and each session records the script of
// what its matcher, conflict set and log were asked to do, for the leaf
// replays.
func runEngine(e *env, steps []step, log *spanLog, traced bool) (*engineRun, error) {
	run := &engineRun{env: e, depth: depthEngine, log: log, traced: traced, sessions: map[string]*session{}}
	if traced {
		run.depth = depthTraced
	}
	ctx := context.Background()
	for i := range steps {
		st := &steps[i]
		run.inOp = st.op >= 0
		var err error
		switch st.kind {
		case stepCreate:
			run.timed(log, st, run.depth, "create", layerEngine, func(span int) { err = run.create(st, span) })
		case stepChanges:
			s := run.sessions[st.id]
			changes := s.build(st.facts)
			run.timed(log, st, run.depth, "ApplyChanges", layerEngine, func(span int) {
				s.enter(span, st.op)
				s.eng.ApplyChanges(changes)
			})
			s.remember(changes)
			run.check(st, run.depth, s.eng.WM.Size(), s.eng.CS.Len())
		case stepRun:
			s := run.sessions[st.id]
			run.timed(log, st, run.depth, "RunContext", layerEngine, func(span int) {
				s.enter(span, st.op)
				err = run.cycle(ctx, s, st.cycles)
			})
			run.check(st, run.depth, s.eng.WM.Size(), s.eng.CS.Len())
		case stepStream:
			s := run.sessions[st.id]
			changes := s.build(st.facts)
			expired := s.eng.Expired
			run.timed(log, st, run.depth, "AdvanceClock+ApplyChanges+RunContext", layerEngine, func(span int) {
				s.enter(span, st.op)
				t0, inner0 := time.Now(), s.script.innerNs()
				s.eng.AdvanceClock(st.maxTS)
				if run.inOp {
					run.advanceNs += int64(time.Since(t0))
					run.advanceInner += s.script.innerNs() - inner0
				}
				s.eng.ApplyChanges(changes)
				err = run.cycle(ctx, s, 0)
			})
			if run.inOp {
				run.events += len(changes)
				run.expired += s.eng.Expired - expired
			}
			run.check(st, run.depth, s.eng.WM.Size(), s.eng.CS.Len())
		case stepDelete:
			s := run.sessions[st.id]
			run.timed(log, st, run.depth, "close", layerEngine, func(int) { err = s.close() })
			delete(run.sessions, st.id)
		case stepGet:
		}
		if err != nil {
			return nil, fmt.Errorf("%s: op %d %s: %w", run.depth, st.op, st.req.Path, err)
		}
	}
	return run, nil
}

// cycle is RunContext with the bookkeeping the per-cycle metrics need.
// A cycle cap is a normal stop (psmd answers limit_hit), not an error.
func (r *engineRun) cycle(ctx context.Context, s *session, maxCycles int) error {
	t0, inner0 := time.Now(), s.script.innerNs()
	n, err := s.eng.RunContext(ctx, maxCycles)
	if r.inOp {
		r.runNs += int64(time.Since(t0))
		r.runInnerNs += s.script.innerNs() - inner0
		r.cycles += n
	}
	limited := errors.Is(err, engine.ErrCycleLimit)
	if limited {
		err = nil
	}
	s.script.ranCycles(err == nil && !limited && !s.eng.Halted)
	return err
}

// create assembles a session: parse, compile, conflict set, working
// memory, engine, and for the durable workload the write-ahead log.
func (r *engineRun) create(st *step, span int) error {
	s := &session{id: st.id, live: map[int]*ops5.WME{}}
	if r.traced {
		s.script = &script{log: r.log}
	}
	s.enter(span, st.op)

	id := r.log.begin(span, st.op, r.depth, "ops5.Parse", layerOps5)
	prog, err := ops5.Parse(st.create.Program)
	r.log.end(id)
	if err != nil {
		return err
	}
	s.parse = spanDur(r.log, id)
	s.prods = prog.Productions

	cs := conflict.NewSet(conflict.LEX)
	onInsert, onRemove := cs.Insert, cs.Remove
	if r.traced {
		onInsert, onRemove = s.script.onInsert(cs), s.script.onRemove(cs)
	}
	var m engine.Matcher
	switch st.create.Matcher {
	case "rete":
		id = r.log.begin(span, st.op, r.depth, "rete.Compile", layerRete)
		s.net, err = rete.Compile(prog.Productions)
		r.log.end(id)
		if err != nil {
			return err
		}
		s.net.OnInsert, s.net.OnRemove = onInsert, onRemove
		if r.traced {
			s.script.net = s.net
		}
		m = netMatcher{s.net}
	case "parallel-rete":
		id = r.log.begin(span, st.op, r.depth, "prete.NewWithConfig", layerPrete)
		s.pm, err = prete.NewWithConfig(prog.Productions, prete.Config{Workers: st.create.Workers})
		r.log.end(id)
		if err != nil {
			return err
		}
		s.pm.OnInsert, s.pm.OnRemove = onInsert, onRemove
		m = s.pm
	default:
		return fmt.Errorf("trace: matcher %q is not replayed at the engine depth", st.create.Matcher)
	}
	s.compile = spanDur(r.log, id)
	if r.traced {
		m = &tracedMatcher{inner: m, s: s.script, layer: layerOf(st.create.Matcher)}
	}
	s.eng = engine.New(wm.New(), cs, m)
	if r.traced {
		s.script.eng = s.eng
	}

	if r.env.durable {
		if s.dir, err = r.env.dataDir(); err != nil {
			return err
		}
		s.log, err = durable.Create(s.dir, []byte(`{"id":"`+st.id+`"}`), s.eng, durable.Options{
			Fsync: durable.FsyncInterval, SnapshotEvery: durableSnapshotEvery,
		})
		if err != nil {
			return err
		}
		appendLog := func(changes []ops5.Change, firedKeys []string) {
			if err := s.log.Append(changes, firedKeys); err != nil {
				panic(fmt.Sprintf("trace: wal append: %v", err)) // the benchmark's own directory; cannot go on
			}
		}
		s.eng.Sink = appendLog
		if r.traced {
			s.eng.Sink = s.script.sink(appendLog)
		}
	}
	r.sessions[st.id] = s
	r.all = append(r.all, s)
	return nil
}

func layerOf(matcher string) string {
	if matcher == "parallel-rete" {
		return layerPrete
	}
	return layerRete
}

func spanDur(log *spanLog, id int) time.Duration {
	s := log.spans[id-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// enter tells the session's script which span and operation the calls
// that follow belong to.
func (s *session) enter(span, op int) {
	if s.script == nil {
		return
	}
	s.script.parent, s.script.op = span, op
	if op >= 0 {
		s.script.beginOps()
	}
}

// build makes fresh working-memory elements for one step, the way
// psmd's session layer does from the decoded request: every replay
// needs its own, because the engine stamps them with time tags.
func (s *session) build(facts []fact) []ops5.Change {
	changes := make([]ops5.Change, len(facts))
	for i, f := range facts {
		if f.retract != 0 {
			changes[i] = ops5.Change{Kind: ops5.Delete, WME: s.live[f.retract]}
			delete(s.live, f.retract)
			continue
		}
		fields := append([]ops5.Field(nil), f.fields...)
		changes[i] = ops5.Change{Kind: ops5.Insert, WME: ops5.NewFact(f.class, fields)}
	}
	return changes
}

// remember indexes the step's asserts by their assigned tags, so a
// later step can retract them.
func (s *session) remember(changes []ops5.Change) {
	for _, ch := range changes {
		if ch.Kind == ops5.Insert {
			s.live[ch.WME.TimeTag] = ch.WME
		}
	}
}

// close releases what a session holds: the parallel matcher's worker
// pool and the log's file.
func (s *session) close() error {
	if s.pm != nil {
		s.pm.Close()
	}
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}

// closeAll closes every session still open and removes the durable
// directories of all of them.
func (r *engineRun) closeAll() {
	for _, s := range r.sessions {
		s.close()
	}
	for _, s := range r.all {
		if s.dir != "" {
			os.RemoveAll(s.dir)
		}
	}
}
