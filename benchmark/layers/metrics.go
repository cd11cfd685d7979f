package layers

import (
	"time"

	"repro/benchmark/loadgen"
)

// metrics turns the depth replays and the leaf replays into the
// per-layer metrics BENCHMARK.json names. Times are nanoseconds.
type metrics struct {
	nOps    float64
	workers int
	// Median time of all operations at each depth, over the rounds.
	t0, t1, t2, t2i float64
	// tLast is the instrumented time of the last round alone — the round
	// the spans and scripts come from.
	tLast float64

	// From the last instrumented run's spans, operations only.
	match, compile, parse, appendNs, engineSelf float64
	// From the leaf replays of that run's scripts, operations only.
	wm, alpha, csInOut, csSelect float64
	changes, cycles, events      float64
	expired                      float64
	runNs, advanceNs             float64 // engine's own time in RunContext / AdvanceClock
	comparisons                  float64
	parallel                     bool // the workload's matcher is the parallel one
	matcherReplay                matcherReplay
	wal                          walReplay
	recovery, snapshot           time.Duration
	parseMs, compileMs           float64 // per session created, set-up included
}

// measureLeaves reads the instrumented run's spans and runs the leaf
// replays over its scripts.
func (m *metrics) measureLeaves(e *env, run *engineRun, log *spanLog) error {
	var traced []Span
	for _, s := range log.spans {
		if s.Depth != depthTraced {
			continue
		}
		traced = append(traced, s)
		if s.Op < 0 {
			continue
		}
		d := float64(s.EndNs - s.StartNs)
		switch s.Name {
		case "Matcher.Apply":
			m.match += d
		case "rete.Compile", "prete.NewWithConfig":
			m.compile += d
		case "ops5.Parse":
			m.parse += d
		case "Log.Append":
			m.appendNs += d
		}
	}
	m.engineSelf = float64(SelfTimes(traced, false)[layerEngine])

	var parse, compile time.Duration
	for _, s := range run.all {
		s.script.beginOps() // a session no operation touched is all set-up
		m.changes += float64(s.script.changes - s.script.opChanges)
		parse += s.parse
		compile += s.compile
		m.parallel = m.parallel || s.pm != nil
		if s.net != nil {
			m.comparisons += float64(s.net.Stats.TokenComparisons - s.script.opComparisons)
		}
	}
	m.parseMs = ms(parse) / float64(len(run.all))
	m.compileMs = ms(compile) / float64(len(run.all))
	m.cycles, m.events, m.expired = float64(run.cycles), float64(run.events), float64(run.expired)
	m.runNs = float64(run.runNs - run.runInnerNs)
	m.advanceNs = float64(run.advanceNs - run.advanceInner)

	d, err := replayWM(run.all)
	if err != nil {
		return err
	}
	m.wm = float64(d)
	if d, err = replayAlpha(run.all); err != nil {
		return err
	}
	m.alpha = float64(d)
	inOut, selects := replayConflict(run.all)
	m.csInOut, m.csSelect = float64(inOut), float64(selects)

	if m.parallel {
		// The bulk workload has one session; its script is the bulk
		// script the paper's true speed-up is taken on.
		if m.matcherReplay, err = serialVsParallel(run.all[0], m.workers); err != nil {
			return err
		}
		m.comparisons = float64(m.matcherReplay.comparisons)
	}
	if e.durable {
		if m.wal, err = replayWAL(e, run.all); err != nil {
			return err
		}
		if m.recovery, m.snapshot, err = recoverAndSnapshot(run.all); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides, answering 0 for a workload that has none of the divisor
// (no cycles, no events, no appends): the metric is then not exercised.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// fill writes every per-layer metric. A value of 0 means the workload
// does not exercise the layer.
func (m *metrics) fill(out map[string]loadgen.Metric, rounds int) {
	set := func(name string, v float64, unit string) { out[name] = loadgen.Metric{Value: v, Unit: unit} }
	us := func(ns float64) float64 { return ns / 1e3 }

	set("server.http_us_per_op", us(per(m.t0-m.t1, m.nOps)), "us")
	set("server.dispatch_us_per_op", us(per(m.t1-m.t2, m.nOps)), "us")
	set("ops5.parse_ms", m.parseMs, "ms")
	set("rete.compile_ms", m.compileMs, "ms")
	set("wm.apply_us_per_change", us(per(m.wm, m.changes)), "us")
	set("rete.alpha_us_per_change", us(per(m.alpha, m.changes)), "us")
	set("rete.comparisons_per_change", per(m.comparisons, m.changes), "count")
	set("conflict.select_us_per_cycle", us(per(m.csSelect, m.cycles)), "us")
	set("engine.act_us_per_cycle", us(per(m.runNs-m.csSelect, m.cycles)), "us")
	set("engine.expire_us_per_event", us(per(m.advanceNs, m.events)), "us")
	set("engine.expired_per_event", per(m.expired, m.events), "count")

	matcherSelf := m.match - m.csInOut // conflict-set callbacks run inside the batch
	if m.parallel {
		r := m.matcherReplay
		set("rete.join_us_per_change", us(per(float64(r.serial)-m.alpha, m.changes)), "us")
		set("prete.apply_us_per_change", us(per(float64(r.parallel), m.changes)), "us")
		set("prete.true_speedup", per(float64(r.serial), float64(r.parallel)), "ratio")
		set("prete.inline_batch_share", per(float64(r.stats.InlineBatches), float64(r.stats.Batches)), "ratio")
		set("prete.steals_per_batch", per(float64(r.stats.Steals), float64(r.stats.Batches)), "count")
	} else {
		set("rete.join_us_per_change", us(per(matcherSelf-m.alpha, m.changes)), "us")
		set("prete.apply_us_per_change", 0, "us")
		set("prete.true_speedup", 0, "ratio")
		set("prete.inline_batch_share", 0, "ratio")
		set("prete.steals_per_batch", 0, "count")
	}

	set("durable.append_us_per_batch", us(float64(m.wal.appendNever)), "us")
	set("durable.fsync_us_per_batch", us(max(float64(m.wal.appendAlways-m.wal.appendNever), 0)), "us")
	set("durable.wal_bytes_per_change", per(float64(m.wal.bytes), float64(m.wal.changes)), "B")
	set("durable.snapshot_ms", ms(m.snapshot), "ms")
	set("durable.recover_s", m.recovery.Seconds(), "s")

	// Shares: the last instrumented run splits into layers exactly
	// (spans and replays); scaled to the uninstrumented engine time,
	// with server as everything above the engine depth, they sum to the
	// depth-0 operation time.
	scale := per(m.t2, m.tLast)
	layer := map[string]float64{
		layerOps5:     m.parse * scale,
		layerWM:       m.wm * scale,
		layerConflict: (m.csInOut + m.csSelect) * scale,
		layerDurable:  m.appendNs * scale,
		layerEngine:   (m.engineSelf - m.csSelect - m.wm) * scale,
		layerRete:     0,
		layerPrete:    0,
		layerServer:   m.t0 - m.t2,
	}
	matcher := layerRete
	if m.parallel {
		matcher = layerPrete
	}
	layer[matcher] = (matcherSelf + m.compile) * scale
	for name, ns := range layer {
		set("share."+name, per(ns, m.t0), "ratio")
	}
	set("trace.overhead", per(m.t2i, m.t2), "ratio")
	set("trace.depth0_us_per_op", us(per(m.t0, m.nOps)), "us")
	set("trace.rounds", float64(rounds), "count")
}
