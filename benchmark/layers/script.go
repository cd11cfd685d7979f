package layers

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/benchmark/loadgen"
	"repro/internal/conflict"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
	"repro/internal/wm"
)

// script is what one session's leaf packages were asked to do during
// the instrumented engine run, captured through the engine's Matcher
// and Sink hooks and the matcher's conflict-set callbacks. The leaf
// replays feed it back to a fresh working memory, network, conflict set
// or log, one package at a time.
type script struct {
	log        *spanLog
	eng        *engine.Engine
	parent, op int // span and operation the current calls belong to

	batches [][]ops5.Change // every batch the matcher saw, tags assigned
	changes int
	cs      []csEvent  // conflict-set inserts, removes and selects, in order
	appends []walBatch // every batch the log was asked to append
	selects int        // select markers written so far
	inner   int64      // ns spent inside matcher batches and log appends

	// Where the first operation begins in batches, cs and appends:
	// what set-up recorded before is replayed untimed, to rebuild state.
	opsBegun                   bool
	opBatches, opCS, opAppends int
	opChanges                  int
	opComparisons              int64
	net                        *rete.Network // serial rete sessions: the comparison counter's owner
}

// beginOps marks the end of set-up in the script.
func (s *script) beginOps() {
	if s.opsBegun {
		return
	}
	s.opsBegun = true
	s.opBatches, s.opCS, s.opAppends = len(s.batches), len(s.cs), len(s.appends)
	s.opChanges = s.changes
	if s.net != nil {
		s.opComparisons = s.net.Stats.TokenComparisons
	}
}

// csEvent is one conflict-set call; a nil instantiation is a Select.
type csEvent struct {
	inst   *ops5.Instantiation
	remove bool
}

type walBatch struct {
	changes   []ops5.Change
	firedKeys []string
}

func (s *script) innerNs() int64 {
	if s == nil {
		return 0
	}
	return s.inner
}

func (s *script) onInsert(cs *conflict.Set) func(*ops5.Instantiation) {
	return func(in *ops5.Instantiation) {
		s.cs = append(s.cs, csEvent{inst: in})
		cs.Insert(in)
	}
}

func (s *script) onRemove(cs *conflict.Set) func(*ops5.Instantiation) {
	return func(in *ops5.Instantiation) {
		s.cs = append(s.cs, csEvent{inst: in, remove: true})
		cs.Remove(in)
	}
}

// markSelects writes one select marker per recognize-act cycle begun
// since the last call. The engine calls the conflict set's Select
// itself — it cannot be wrapped — but every cycle starts with exactly
// one, before the cycle's batch reaches the matcher.
func (s *script) markSelects() {
	for n := s.eng.Cycles - s.selects; n > 0; n-- {
		s.cs = append(s.cs, csEvent{})
		s.selects++
	}
}

// ranCycles closes a RunContext call: cycles whose batch was empty
// never reached the matcher, and a run that ends in quiescence made one
// more Select, the one that found nothing.
func (s *script) ranCycles(quiesced bool) {
	if s == nil {
		return
	}
	s.markSelects()
	if quiesced {
		s.cs = append(s.cs, csEvent{})
	}
}

// sink wraps the log append in a span and records the batch.
func (s *script) sink(appendLog engine.ChangeLogSink) engine.ChangeLogSink {
	return func(changes []ops5.Change, firedKeys []string) {
		id := s.log.begin(s.parent, s.op, depthTraced, "Log.Append", layerDurable)
		appendLog(changes, firedKeys)
		s.log.end(id)
		s.inner += int64(spanDur(s.log, id))
		s.appends = append(s.appends, walBatch{append([]ops5.Change(nil), changes...), firedKeys})
	}
}

// tracedMatcher wraps a matcher batch in a span and records the batch.
type tracedMatcher struct {
	inner engine.Matcher
	s     *script
	layer string
}

func (m *tracedMatcher) Apply(changes []ops5.Change) {
	s := m.s
	s.markSelects()
	id := s.log.begin(s.parent, s.op, depthTraced, "Matcher.Apply", m.layer)
	m.inner.Apply(changes)
	s.log.end(id)
	s.inner += int64(spanDur(s.log, id))
	s.batches = append(s.batches, append([]ops5.Change(nil), changes...))
	s.changes += len(changes)
}

// since is time.Since for a start that may never have been reached:
// a script whose operations recorded nothing has nothing to time.
func since(t0 time.Time) time.Duration {
	if t0.IsZero() {
		return 0
	}
	return time.Since(t0)
}

// replayReps is how often each leaf replay runs; its time is the
// median.
const replayReps = 5

// medianOf runs fn replayReps times and returns the median duration.
func medianOf(fn func() (time.Duration, error)) (time.Duration, error) {
	var ds []float64
	for i := 0; i < replayReps; i++ {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(loadgen.Median(ds)), nil
}

// replayWM feeds every session's batches to a fresh working memory.
// The elements already carry the tags the run assigned, so this is
// wm.Apply's tagged-insert path — one comparison more per insert than
// the live path.
func replayWM(sessions []*session) (time.Duration, error) {
	return medianOf(func() (time.Duration, error) {
		var total time.Duration
		for _, s := range sessions {
			mem := wm.New()
			var t0 time.Time
			for i, b := range s.script.batches {
				if i == s.script.opBatches {
					t0 = time.Now()
				}
				if _, err := mem.Apply(b); err != nil {
					return 0, fmt.Errorf("wm replay: session %s: %w", s.id, err)
				}
			}
			total += since(t0)
		}
		return total, nil
	})
}

// replayAlpha runs every change of every session through the
// constant-test network of a freshly compiled program.
func replayAlpha(sessions []*session) (time.Duration, error) {
	return medianOf(func() (time.Duration, error) {
		var total time.Duration
		for _, s := range sessions {
			net, err := rete.Compile(s.prods)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for _, b := range s.script.batches[s.script.opBatches:] {
				for _, ch := range b {
					net.MatchAlphas(ch.WME)
				}
			}
			total += time.Since(t0)
		}
		return total, nil
	})
}

// replayConflict feeds every session's conflict-set script to a fresh
// set twice per repetition — only the inserts and removes (the part that
// runs inside the matcher's batch), then all of it — and returns the
// median insert-and-remove time and the median difference, which is
// what the selects cost.
func replayConflict(sessions []*session) (inOut, selects time.Duration) {
	pass := func(withSelects bool) time.Duration {
		var total time.Duration
		for _, s := range sessions {
			cs := conflict.NewSet(conflict.LEX)
			var t0 time.Time
			for i, ev := range s.script.cs {
				if i == s.script.opCS {
					t0 = time.Now()
				}
				switch {
				case ev.inst == nil:
					if withSelects {
						cs.Select()
					}
				case ev.remove:
					cs.Remove(ev.inst)
				default:
					cs.Insert(ev.inst)
				}
			}
			total += since(t0)
		}
		return total
	}
	var io, sel []float64
	for i := 0; i < replayReps; i++ {
		runtime.GC()
		a := pass(false)
		runtime.GC()
		b := pass(true)
		io = append(io, float64(a))
		sel = append(sel, float64(b-a))
	}
	return time.Duration(loadgen.Median(io)), max(time.Duration(loadgen.Median(sel)), 0)
}

// serialVsParallel replays one session's batches through a fresh serial
// rete network and through a fresh parallel matcher, conflict-set
// callbacks stubbed out in both, and returns both wall times — the
// paper's true speed-up is their ratio — with the serial network and
// the parallel matcher's counters.
type matcherReplay struct {
	serial, parallel time.Duration
	comparisons      int64
	stats            prete.Stats
}

func serialVsParallel(s *session, workers int) (matcherReplay, error) {
	var out matcherReplay
	nop := func(*ops5.Instantiation) {}
	var serial, parallel []float64
	for i := 0; i < replayReps; i++ {
		net, err := rete.Compile(s.prods)
		if err != nil {
			return out, err
		}
		net.OnInsert, net.OnRemove = nop, nop
		var t0 time.Time
		var before int64
		for i, b := range s.script.batches {
			if i == s.script.opBatches {
				t0, before = time.Now(), net.Stats.TokenComparisons
			}
			net.Apply(b)
		}
		serial = append(serial, float64(since(t0)))
		out.comparisons = net.Stats.TokenComparisons - before

		pm, err := prete.NewWithConfig(s.prods, prete.Config{Workers: workers})
		if err != nil {
			return out, err
		}
		pm.OnInsert, pm.OnRemove = nop, nop
		var base prete.Stats
		for i, b := range s.script.batches {
			if i == s.script.opBatches {
				t0, base = time.Now(), pm.Stats()
			}
			pm.Apply(b)
		}
		parallel = append(parallel, float64(since(t0)))
		out.stats = pm.Stats()
		out.stats.Batches -= base.Batches
		out.stats.InlineBatches -= base.InlineBatches
		out.stats.Steals -= base.Steals
		pm.Close()
	}
	out.serial = time.Duration(loadgen.Median(serial))
	out.parallel = time.Duration(loadgen.Median(parallel))
	return out, nil
}

// fsyncReplayBatches bounds the fsync-always replay: every append
// there waits for the disk.
const fsyncReplayBatches = 200

// walReplay is what the log replays measured.
type walReplay struct {
	appendNever  time.Duration // per batch, no fsync
	appendAlways time.Duration // per batch, fsync after each
	bytes        int64
	changes      int
}

// replayWAL appends the sessions' captured batches to fresh logs, once
// without fsync and — for the first fsyncReplayBatches batches — once
// syncing every record.
func replayWAL(e *env, sessions []*session) (walReplay, error) {
	var out walReplay
	run := func(policy durable.FsyncPolicy, limit int, count bool) (time.Duration, int, error) {
		var total time.Duration
		done := 0
		for _, s := range sessions {
			if done >= limit {
				break
			}
			dir, err := e.dataDir()
			if err != nil {
				return 0, 0, err
			}
			defer os.RemoveAll(dir)
			// The log reads its engine's counters when it appends; an
			// idle engine serves.
			idle := engine.New(wm.New(), conflict.NewSet(conflict.LEX), netMatcher{})
			opts := durable.Options{Fsync: policy}
			if count {
				opts.ObserveAppend = func(n int) { out.bytes += int64(n) }
			}
			log, err := durable.Create(dir, []byte(`{}`), idle, opts)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			for _, b := range s.script.appends[s.script.opAppends:] {
				if done >= limit {
					break
				}
				if err := log.Append(b.changes, b.firedKeys); err != nil {
					log.Close()
					return 0, 0, err
				}
				done++
				if count {
					out.changes += len(b.changes)
				}
			}
			total += time.Since(t0)
			if err := log.Close(); err != nil {
				return 0, 0, err
			}
		}
		return total, done, nil
	}
	all := 0
	for _, s := range sessions {
		all += len(s.script.appends) - s.script.opAppends
	}
	if all == 0 {
		return out, nil
	}
	total, n, err := run(durable.FsyncNever, all, true)
	if err != nil {
		return out, err
	}
	out.appendNever = total / time.Duration(n)
	if total, n, err = run(durable.FsyncAlways, fsyncReplayBatches, false); err != nil {
		return out, err
	}
	out.appendAlways = total / time.Duration(n)
	return out, nil
}

// recoverAndSnapshot closes every live durable session of the
// instrumented run, recovers it — initial snapshot plus the whole log
// tail — into a freshly compiled engine, checks that recovery arrives
// at the state the run left, and checkpoints the recovered state. It
// returns the mean recovery and snapshot times per session.
func recoverAndSnapshot(sessions []*session) (recovery, snapshot time.Duration, err error) {
	n := 0
	for _, s := range sessions {
		if s.log == nil {
			continue
		}
		if err := s.log.Close(); err != nil {
			return 0, 0, err
		}
		s.log = nil
		net, err := rete.Compile(s.prods)
		if err != nil {
			return 0, 0, err
		}
		cs := conflict.NewSet(conflict.LEX)
		net.OnInsert, net.OnRemove = cs.Insert, cs.Remove
		eng := engine.New(wm.New(), cs, netMatcher{net})
		t0 := time.Now()
		log, _, err := durable.Recover(s.dir, eng, durable.Options{Fsync: durable.FsyncNever})
		recovery += time.Since(t0)
		if err != nil {
			return 0, 0, fmt.Errorf("recover session %s: %w", s.id, err)
		}
		if eng.WM.Size() != s.eng.WM.Size() || eng.CS.Len() != s.eng.CS.Len() || eng.TotalChanges != s.eng.TotalChanges {
			log.Close()
			return 0, 0, fmt.Errorf("session %s recovered to wm %d conflicts %d changes %d, was %d %d %d", s.id,
				eng.WM.Size(), eng.CS.Len(), eng.TotalChanges, s.eng.WM.Size(), s.eng.CS.Len(), s.eng.TotalChanges)
		}
		t0 = time.Now()
		_, err = log.Snapshot()
		snapshot += time.Since(t0)
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, err
		}
		n++
	}
	if n == 0 {
		return 0, 0, nil
	}
	return recovery / time.Duration(n), snapshot / time.Duration(n), nil
}
