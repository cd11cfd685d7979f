// Package layers is psmbench's traced run: it replays a prefix of a
// workload's identical input in-process at four depths — the HTTP
// handler, the server's Go API, an engine assembled from the leaf
// packages, and the leaf packages one at a time — and attributes the
// time of an operation to layers by differencing. A layer is a package.
// Spans are recorded here, in the benchmark's own files, around the
// calls into each layer; nothing inside the program is instrumented.
//
// This is the only package of the benchmark that imports
// repro/internal, and it keeps to a short list of calls, so that a
// refactor below that surface leaves it compiling:
//
//	ops5.Parse (and the value constructors NewFact, Sym, Num, Change)
//	sym.Intern
//	wm.New, Memory.Apply
//	rete.Compile, Network.Apply, Network.MatchAlphas, Network.Stats
//	prete.NewWithConfig, Matcher.Apply, Stats, Close
//	conflict.NewSet, Set.Insert, Remove, Select
//	engine.New, ApplyChanges, RunContext, AdvanceClock, the Matcher
//	  interface and the Sink hook
//	durable.Create, Log.Append, Snapshot, Close, Recover
//	server.New, Handler, CreateSession, Apply, RunCycles, StreamApply,
//	  DeleteSession, Close
//
// It does not use internal/core, internal/workload or engine.OnCycle.
package layers

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/benchmark/loadgen"
	"repro/internal/server"
)

// Options says what to trace.
type Options struct {
	BenchDir string // holds rules/
	WorkDir  string // receives durable directories; the run removes them
	OutDir   string // receives trace_<workload>.json
	Workload string
	Seed     int64
	Nproc    int
	// Budget is how long the depth replays may take together; they are
	// repeated in rounds until it is spent (at least minRounds).
	Budget time.Duration
}

// Outcome is the traced run's result.
type Outcome struct {
	Metrics   map[string]loadgen.Metric
	Attempted int
	Failed    int
	Failures  []string
}

// traceOps is the prefix of each workload the traced run replays, in
// operations (dealt round-robin to the plan's clients, all driven from
// one goroutine: the traced run measures service time, not queueing).
var traceOps = map[string]int{
	"manners_rete": 6,       // solves
	"bulk_prete":   48,      // 384-change requests
	"chatter_http": 64 * 24, // 24 requests per session
	"chatter_wal":  64 * 24,
	"stream_fraud": 48, // 256-event chunks
}

const (
	minRounds = 2
	maxRounds = 9
)

// record plays the plan's set-up and the first n operations through an
// in-process psmd handler and returns every request that went by.
func record(e *env, plan *loadgen.Plan, n int, out *Outcome) ([]step, error) {
	cfg, dir, err := e.serverConfig()
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	defer os.RemoveAll(dir)
	defer srv.Close()
	rec := &recorder{h: srv.Handler(), op: -1}
	if err := plan.Prepare(rec); err != nil {
		return nil, fmt.Errorf("trace: set-up: %w", err)
	}
	for i := 0; i < n; i++ {
		rec.op = i
		out.Attempted++
		if _, err := plan.Op(rec, i%plan.Clients); err != nil {
			out.fail(err)
		}
	}
	return rec.steps, rec.err
}

func (o *Outcome) fail(err error) {
	o.Failed++
	if len(o.Failures) < 5 {
		o.Failures = append(o.Failures, err.Error())
	}
}

func (o *Outcome) absorb(r *depthRun) {
	o.Attempted += r.checked
	for _, err := range r.errs {
		o.fail(err)
	}
}

// Trace makes the traced run of one workload.
func Trace(o Options) (*Outcome, error) {
	nOps, ok := traceOps[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	plan, err := loadgen.NewPlan(o.BenchDir, o.Workload, o.Seed, o.Nproc)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Metrics: map[string]loadgen.Metric{}}
	e := &env{durable: plan.Durable, workDir: o.WorkDir}
	steps, err := record(e, plan, nOps, out)
	if err != nil {
		return nil, err
	}

	// The depth replays, interleaved round by round so that drift in
	// the machine's speed hits all depths alike.
	var t0s, t1s, t2s, t2is []float64
	var last *engineRun
	var lastLog *spanLog
	deadline := time.Now().Add(o.Budget * 6 / 10) // the leaf replays need the rest
	for round := 0; round < maxRounds && (round < minRounds || time.Now().Before(deadline)); round++ {
		log := newSpanLog()
		runtime.GC()
		d0, err := runHTTP(e, steps, log)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		d1, err := runServer(e, steps, log)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		d2, err := runEngine(e, steps, log, false)
		if err != nil {
			return nil, err
		}
		d2.closeAll()
		if last != nil {
			last.closeAll()
		}
		runtime.GC()
		d2i, err := runEngine(e, steps, log, true)
		if err != nil {
			return nil, err
		}
		if round == 0 {
			out.absorb(d0)
			out.absorb(d1)
			out.absorb(&d2.depthRun)
			out.absorb(&d2i.depthRun)
		}
		t0s = append(t0s, float64(d0.total))
		t1s = append(t1s, float64(d1.total))
		t2s = append(t2s, float64(d2.total))
		t2is = append(t2is, float64(d2i.total))
		last, lastLog = d2i, log
	}
	defer last.closeAll()

	m := &metrics{nOps: float64(nOps), workers: o.Nproc,
		t0: loadgen.Median(t0s), t1: loadgen.Median(t1s), t2: loadgen.Median(t2s), t2i: loadgen.Median(t2is), tLast: float64(last.total)}
	if err := m.measureLeaves(e, last, lastLog); err != nil {
		return nil, err
	}
	m.fill(out.Metrics, len(t0s))
	if err := writeSpans(o, lastLog, out); err != nil {
		return nil, err
	}
	return out, nil
}

// writeSpans stores the last round's spans and the metrics.
func writeSpans(o Options, log *spanLog, out *Outcome) error {
	if err := os.MkdirAll(o.OutDir, 0o777); err != nil {
		return err
	}
	doc := struct {
		Workload string                    `json:"workload"`
		Seed     int64                     `json:"seed"`
		Metrics  map[string]loadgen.Metric `json:"metrics"`
		Spans    []Span                    `json:"spans"`
	}{o.Workload, o.Seed, out.Metrics, log.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.OutDir, "trace_"+o.Workload+".json"), append(data, '\n'), 0o666)
}
