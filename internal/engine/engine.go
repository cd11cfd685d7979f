// Package engine implements the OPS5 recognize-act cycle of §2.1:
// match, conflict-resolution, act. It is parameterised over the matcher
// (the served parallel Rete, on one lane or many, and naive matchers,
// the serial reference rete.Network, or the §3.2 baselines TREAT and
// full-state, which internal/matchtest builds), and
// supports the parallel-firing mode used by the paper's "parallel
// firings" curves in Figures 6-1 and 6-2.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/sym"
	"repro/internal/wm"
)

// ErrCycleLimit is returned by RunContext when the cycle cap is reached
// before the system quiesces or halts. It distinguishes "stopped by
// policy" from "ran to completion", so services hosting untrusted
// programs can degrade gracefully instead of running unbounded.
var ErrCycleLimit = errors.New("engine: cycle limit reached")

// Matcher is the interface every match algorithm implements. Conflict
// set deltas leave through the ops5.MatchSink the matcher was built
// with, so Apply carries no return value.
type Matcher interface {
	// Apply processes a batch of working-memory changes. Insert WMEs
	// already carry their assigned time tags.
	Apply(changes []ops5.Change)
}

// ChangeLogSink receives every change batch the engine commits —
// external applies, initial loads and recognize-act act phases alike —
// after working memory has assigned time tags and the matcher has run.
// firedKeys holds the conflict-set keys Select marked fired during the
// cycle that produced the batch (nil for external applies); together
// the two streams are a complete log of the session's evolution, which
// is what internal/durable persists for crash recovery. A cycle whose
// act phase fails commits none of its changes but still hands the sink
// its marks, with no changes. The changes slice is only lent for the
// call (it is the engine's reused cycle batch or expiry batch): a sink
// that keeps it copies it.
type ChangeLogSink func(changes []ops5.Change, firedKeys []string)

// Engine drives the recognize-act cycle.
type Engine struct {
	WM      *wm.Memory
	CS      *conflict.Set
	Matcher Matcher
	// Out receives the output of write actions; nil discards it.
	Out io.Writer
	// MaxCycles bounds Run; zero means no bound.
	MaxCycles int
	// ParallelFirings, when > 1, fires up to that many non-conflicting
	// instantiations per cycle and applies all their changes as one
	// batch (application-level parallelism, §8).
	ParallelFirings int

	// Clock is the engine-owned logical clock driving event expiry: it
	// advances by one per recognize-act cycle and jumps to ingest
	// timestamps via AdvanceClock. Mutate it only through those paths —
	// crash recovery restores it directly from the log.
	Clock int64

	// Fired counts production firings.
	Fired int
	// Cycles counts recognize-act cycles executed.
	Cycles int
	// TotalChanges counts WM changes processed.
	TotalChanges int
	// Expired counts elements retracted by TTL expiry (see ttl.go).
	Expired int
	// Halted reports whether a halt action ran.
	Halted bool
	// OnFire, when set, observes each instantiation as it fires. The
	// instantiation is valid during the call only (it is the conflict
	// set's scratch, refilled by the next Select): a hook that keeps it
	// copies it.
	OnFire func(*ops5.Instantiation)
	// OnCycle, when set, receives one observability span per
	// recognize-act cycle and per externally applied change batch.
	// Phase timing runs only while the hook is installed, so the
	// uninstrumented hot path pays nothing.
	OnCycle func(obs.CycleSpan)
	// TraceID labels emitted spans with the request driving the engine.
	// RunContext refreshes it from the context's trace ID; services
	// hosting the engine set it directly on paths without a context.
	TraceID string
	// Sink, when set, observes every committed change batch (see
	// ChangeLogSink). The key collection in Step runs only while a sink
	// is installed, so the unlogged hot path pays nothing.
	Sink ChangeLogSink

	// ttl schedules expiry of event facts inserted with ^__ttl.
	ttl ttlIndex

	// The act phase's buffers, reused from cycle to cycle: batch is
	// Step's cycle batch; fields holds the fields of the elements a
	// firing makes until working memory interns them (so every commit
	// resets it), the elements' headers being carved from working
	// memory (wm.Memory.Carve); binds holds one firing's bind-action
	// values.
	batch  []ops5.Change
	fields []ops5.Field
	binds  []ops5.Value
}

// New assembles an engine. The matcher must already send its
// conflict-set deltas to cs (Sink = cs; core.NewSystemFromProgram does
// this for every served matcher).
func New(mem *wm.Memory, cs *conflict.Set, m Matcher) *Engine {
	return &Engine{WM: mem, CS: cs, Matcher: m}
}

// Load applies a set of initial WMEs as one insert batch (observable
// like any externally applied batch). Each is copied, tag included,
// into a header carved from working memory, sharing w's fields until
// the insert copies them into the class arena, so wmes (a program's
// initial elements, which sessions share) are only read.
func (e *Engine) Load(wmes []*ops5.WME) {
	changes := make([]ops5.Change, len(wmes))
	for i, w := range wmes {
		c := e.WM.Carve().Init(w.ClassID(), w.Fields())
		c.TimeTag = w.TimeTag
		changes[i] = ops5.Change{Kind: ops5.Insert, WME: c}
	}
	e.ApplyChanges(changes)
}

// ApplyChanges commits a batch of WM changes (assigning time tags) and
// runs the matcher — one synchronization step. Custom control loops
// (e.g. the Soar layer's elaboration waves) drive the engine through
// this and EvalRHS instead of Step.
func (e *Engine) ApplyChanges(changes []ops5.Change) {
	if e.OnCycle == nil || len(changes) == 0 {
		e.applyBatch(changes, nil)
		return
	}
	start := time.Now()
	e.applyBatch(changes, nil)
	e.OnCycle(obs.CycleSpan{
		TraceID: e.TraceID, Kind: obs.SpanApply, Cycle: e.Cycles,
		Start: start, Match: time.Since(start), Changes: len(changes),
		WMSize: e.WM.Size(), ConflictSize: e.CS.Len(),
	})
}

// applyBatch commits changes to working memory (assigning tags) and then
// runs the matcher. firedKeys carries the cycle's refraction marks to
// the change-log sink.
func (e *Engine) applyBatch(changes []ops5.Change, firedKeys []string) {
	if len(changes) == 0 && len(firedKeys) == 0 {
		return
	}
	if len(changes) > 0 {
		if _, err := e.WM.Apply(changes); err != nil {
			// Working-memory errors indicate an engine bug (removing a WME
			// twice); they are surfaced loudly rather than silently skipped.
			panic(fmt.Sprintf("engine: %v", err))
		}
		// Every element built in fields has now been interned.
		e.fields = e.fields[:0]
		e.trackTTL(changes)
		e.Matcher.Apply(changes)
		e.TotalChanges += len(changes)
	}
	if e.Sink != nil {
		e.Sink(changes, firedKeys)
	}
}

// Step runs one recognize-act cycle: select (up to ParallelFirings)
// instantiations, evaluate their actions, and apply the changes as one
// batch. It reports whether any production fired.
func (e *Engine) Step() (bool, error) {
	if e.Halted {
		return false, nil
	}
	limit := e.ParallelFirings
	if limit < 1 {
		limit = 1
	}
	observe := e.OnCycle != nil
	var spanStart, phase time.Time
	var selectDur, actDur time.Duration
	if observe {
		spanStart = time.Now()
	}
	batch := e.batch[:0]
	var firedKeys []string         // refraction marks for the change-log sink
	consumed := make(map[int]bool) // time tags removed this cycle
	fired := 0
	for fired < limit {
		if observe {
			phase = time.Now()
		}
		inst := e.CS.Select()
		if observe {
			selectDur += time.Since(phase)
		}
		if inst == nil {
			break
		}
		if e.Sink != nil {
			// Select marked the instantiation fired whether or not it
			// ends up firing below (a consumed-WME skip still burns its
			// refraction), so the log must record every selection.
			firedKeys = append(firedKeys, inst.Key())
		}
		if usesConsumed(inst, consumed) {
			// Another firing this cycle removed one of its WMEs; in
			// parallel-firing mode such instantiations are skipped.
			continue
		}
		if e.OnFire != nil {
			e.OnFire(inst)
		}
		if observe {
			phase = time.Now()
		}
		var err error
		batch, err = e.evalRHS(inst, consumed, batch)
		if observe {
			actDur += time.Since(phase)
		}
		if err != nil {
			// The cycle commits none of its changes, but its selections
			// stay marked fired, so the log records the marks.
			e.fields = e.fields[:0]
			e.releaseBatch(batch)
			e.applyBatch(nil, firedKeys)
			return false, err
		}
		fired++
		e.Fired++
		if e.Halted {
			break
		}
	}
	if fired == 0 {
		return false, nil // nothing was selected, so batch is empty
	}
	e.Cycles++
	// One recognize-act cycle is one tick of the logical clock; the
	// advance precedes the commit so the batch is logged at the clock it
	// was applied under (TTL deadlines derive from it).
	e.Clock++
	if observe {
		phase = time.Now()
	}
	e.applyBatch(batch, firedKeys)
	if observe {
		e.OnCycle(obs.CycleSpan{
			TraceID: e.TraceID, Kind: obs.SpanCycle, Cycle: e.Cycles,
			Start: spanStart, Match: time.Since(phase), Select: selectDur, Act: actDur,
			Fired: fired, Changes: len(batch),
			WMSize: e.WM.Size(), ConflictSize: e.CS.Len(),
		})
	}
	e.releaseBatch(batch)
	e.ExpireDue()
	return true, nil
}

// releaseBatch keeps the cycle batch's storage for the next cycle
// without pinning the elements it held.
func (e *Engine) releaseBatch(batch []ops5.Change) {
	clear(batch)
	e.batch = batch[:0]
}

// usesConsumed reports whether the instantiation references a WME
// already removed by an earlier firing in the same cycle.
func usesConsumed(inst *ops5.Instantiation, consumed map[int]bool) bool {
	for _, w := range inst.WMEs {
		if w != nil && consumed[w.TimeTag] {
			return true
		}
	}
	return false
}

// Run executes cycles until no production can fire, halt is executed, or
// MaxCycles is reached. It returns the number of cycles executed.
// Reaching MaxCycles is not an error at this level (batch drivers treat
// the cap as a normal stopping point); callers that need to distinguish
// the capped case use RunContext, which reports it as ErrCycleLimit.
func (e *Engine) Run() (int, error) {
	n, err := e.RunContext(context.Background(), e.MaxCycles)
	if errors.Is(err, ErrCycleLimit) {
		err = nil
	}
	return n, err
}

// RunContext executes cycles until no production can fire, halt is
// executed, ctx is done, or maxCycles is reached (zero means no bound;
// the engine's MaxCycles field is ignored). It returns the number of
// cycles executed this call, with ErrCycleLimit when the cap stopped the
// run and ctx.Err() when cancellation or a deadline did. The context is
// checked between cycles, so a single recognize-act cycle is never
// interrupted mid-flight and working memory stays consistent.
func (e *Engine) RunContext(ctx context.Context, maxCycles int) (int, error) {
	if id := obs.TraceID(ctx); id != "" {
		e.TraceID = id
	}
	start := e.Cycles
	for {
		if err := ctx.Err(); err != nil {
			return e.Cycles - start, err
		}
		if maxCycles > 0 && e.Cycles-start >= maxCycles {
			return e.Cycles - start, ErrCycleLimit
		}
		ok, err := e.Step()
		if err != nil {
			return e.Cycles - start, err
		}
		if !ok {
			return e.Cycles - start, nil
		}
	}
}

// Restore primes a freshly constructed engine (empty working memory,
// empty conflict set) with a recovered snapshot: elements re-enter
// working memory with their original time tags, the matcher processes
// them as one insert batch (rebuilding its memories and the conflict
// set), and the recorded refraction marks are re-applied. The change-log
// sink is deliberately not invoked — recovery must not re-log state the
// snapshot already holds. Counter fields (Cycles, Fired, TotalChanges,
// Halted) are the caller's to restore; they are plain exported fields.
func (e *Engine) Restore(wmes []*ops5.WME, nextTag int, firedKeys []string) error {
	if e.WM.Size() != 0 {
		return errors.New("engine: restore into non-empty working memory")
	}
	if err := e.WM.Restore(wmes, nextTag); err != nil {
		return err
	}
	if len(wmes) > 0 {
		changes := make([]ops5.Change, len(wmes))
		for i, w := range wmes {
			changes[i] = ops5.Change{Kind: ops5.Insert, WME: w}
		}
		e.Matcher.Apply(changes)
	}
	for _, k := range firedKeys {
		e.CS.MarkFired(k)
	}
	return nil
}

// Replay re-applies one logged change batch during crash recovery:
// inserts are committed through the normal apply path (working memory
// re-assigns the same tags it assigned originally — assignment is
// deterministic — and the recorded tags cross-check that), deletes are
// resolved to the live elements by tag (matchers remove by pointer
// identity), and the batch's refraction marks are re-applied after the
// matcher runs. Unlike applyBatch, corruption surfaces as an error
// rather than a panic, so recovery can stop cleanly at a bad record.
func (e *Engine) Replay(changes []ops5.Change, firedKeys []string) error {
	resolved := make([]ops5.Change, len(changes))
	nextTag := e.WM.NextTag()
	for i, ch := range changes {
		switch ch.Kind {
		case ops5.Insert:
			if ch.WME.TimeTag != nextTag {
				return fmt.Errorf("engine: replayed insert tag %d, working memory would assign %d",
					ch.WME.TimeTag, nextTag)
			}
			nextTag++
			resolved[i] = ch
		case ops5.Delete:
			live, ok := e.WM.Get(ch.WME.TimeTag)
			if !ok {
				return fmt.Errorf("engine: replayed delete of absent tag %d", ch.WME.TimeTag)
			}
			resolved[i] = ops5.Change{Kind: ops5.Delete, WME: live}
		default:
			return fmt.Errorf("engine: replayed unknown change kind %d", ch.Kind)
		}
	}
	if len(resolved) > 0 {
		if _, err := e.WM.Apply(resolved); err != nil {
			return fmt.Errorf("engine: replay: %w", err)
		}
		// Rebuild the expiry index as the log replays. The caller set
		// Clock from the record before this call, so deadlines recompute
		// to their original values; logged expiry batches replay as the
		// ordinary deletes above, so replay itself never expires.
		e.trackTTL(resolved)
		e.Matcher.Apply(resolved)
		e.TotalChanges += len(resolved)
	}
	for _, k := range firedKeys {
		e.CS.MarkFired(k)
	}
	return nil
}

// EvalRHS evaluates a production's actions against an instantiation and
// appends the resulting WM changes to changes without applying them.
// Remove/modify targets are recorded in consumed (time tag -> removed),
// letting the caller batch several firings while detecting conflicts.
// The engine's Fired counter is incremented and OnFire invoked. The
// elements it makes are carved from the engine's working memory and
// keep their fields in engine-owned storage until they are committed:
// the caller commits the changes with ApplyChanges before it commits
// anything else. On error, what it appended is to be discarded.
func (e *Engine) EvalRHS(inst *ops5.Instantiation, consumed map[int]bool, changes []ops5.Change) ([]ops5.Change, error) {
	if e.OnFire != nil {
		e.OnFire(inst)
	}
	e.Fired++
	return e.evalRHS(inst, consumed, changes)
}

// resolve returns an RHS term's value in a firing of inst: a variable
// is read from the matched element or the bind slot its VarRef names.
func (e *Engine) resolve(inst *ops5.Instantiation, t *ops5.RHSTerm) (ops5.Value, error) {
	switch {
	case t.IsVar:
		switch r := t.Ref; {
		case r.Bind > 0:
			return e.binds[r.Bind-1], nil
		case r.Attr != sym.None:
			return inst.WMEs[r.CE].GetID(r.Attr), nil
		}
		return ops5.Value{}, fmt.Errorf("engine: production %s: unbound variable <%s> at fire time",
			inst.Production.Name, t.Var)
	case t.Compute != nil:
		return t.Compute.Eval(func(op *ops5.RHSTerm) (ops5.Value, error) { return e.resolve(inst, op) })
	case t.Crlf:
		return ops5.Value{}, fmt.Errorf("engine: production %s: (crlf) is only valid in write",
			inst.Production.Name)
	default:
		return t.Val, nil
	}
}

// appendFields resolves make/modify pairs into the field buffer and
// returns them as one capped slice of it.
func (e *Engine) appendFields(inst *ops5.Instantiation, pairs []ops5.RHSPair) ([]ops5.Field, error) {
	start := len(e.fields)
	for i := range pairs {
		v, err := e.resolve(inst, &pairs[i].Term)
		if err != nil {
			return nil, err
		}
		e.fields = append(e.fields, ops5.Field{Attr: pairs[i].AttrID, Val: v})
	}
	return e.fields[start:len(e.fields):len(e.fields)], nil
}

// evalRHS evaluates a production's actions against an instantiation and
// appends the resulting WM changes to changes. Remove/modify targets are
// recorded in consumed. New elements are built in headers carved from
// working memory, their fields in e.fields, so a firing allocates
// nothing once the buffers and the slab's chunk have room.
func (e *Engine) evalRHS(inst *ops5.Instantiation, consumed map[int]bool, changes []ops5.Change) ([]ops5.Change, error) {
	p := inst.Production
	if n := p.BindSlots; n > len(e.binds) {
		e.binds = make([]ops5.Value, n)
	}
	ceWME := func(a *ops5.Action) (*ops5.WME, error) {
		w := inst.WMEs[a.CE-1]
		if w == nil {
			return nil, fmt.Errorf("engine: production %s: action %s references negated CE",
				p.Name, a)
		}
		if consumed[w.TimeTag] {
			return nil, fmt.Errorf("engine: production %s: CE %d element %d already removed this cycle",
				p.Name, a.CE, w.TimeTag)
		}
		return w, nil
	}
	for _, a := range p.RHS {
		switch a.Kind {
		case ops5.ActMake:
			fields, err := e.appendFields(inst, a.Pairs)
			if err != nil {
				return changes, err
			}
			changes = append(changes, ops5.Change{Kind: ops5.Insert, WME: e.WM.Carve().Init(a.ClassID, fields)})
		case ops5.ActModify:
			old, err := ceWME(a)
			if err != nil {
				return changes, err
			}
			updates, err := e.appendFields(inst, a.Pairs)
			if err != nil {
				return changes, err
			}
			nw := e.WM.Carve()
			e.fields = old.AppendWithUpdates(nw, e.fields, updates)
			consumed[old.TimeTag] = true
			changes = append(changes,
				ops5.Change{Kind: ops5.Delete, WME: old},
				ops5.Change{Kind: ops5.Insert, WME: nw})
		case ops5.ActRemove:
			old, err := ceWME(a)
			if err != nil {
				return changes, err
			}
			consumed[old.TimeTag] = true
			changes = append(changes, ops5.Change{Kind: ops5.Delete, WME: old})
		case ops5.ActWrite:
			if e.Out != nil {
				var line strings.Builder
				for i := range a.Args {
					t := &a.Args[i]
					if t.Crlf {
						line.WriteString("\n")
						continue
					}
					v, err := e.resolve(inst, t)
					if err != nil {
						return changes, err
					}
					if n := line.Len(); n > 0 && line.String()[n-1] != '\n' {
						line.WriteString(" ")
					}
					line.WriteString(v.String())
				}
				fmt.Fprintln(e.Out, line.String())
			}
		case ops5.ActHalt:
			e.Halted = true
		case ops5.ActBind:
			v, err := e.resolve(inst, &a.Term)
			if err != nil {
				return changes, err
			}
			e.binds[a.Slot] = v
		}
	}
	return changes, nil
}
