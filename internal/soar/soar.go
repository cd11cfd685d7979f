// Package soar implements a Soar-flavoured decision layer on top of
// the OPS5 engine: elaboration waves in which *every* newly matched
// elaboration rule fires simultaneously, a decision procedure driven by
// preference working-memory elements, operator application, and
// tie-impasse subgoaling.
//
// Two of the paper's six workloads (R1-Soar and Eight-Puzzle-Soar) are
// Soar systems, and the "parallel firings" curves of Figures 6-1/6-2
// exist precisely because Soar's elaboration phase fires all satisfied
// productions in parallel — the application-level parallelism §8 calls
// the one real lever on working-memory changes per cycle. This package
// provides that execution model so elaboration-wave traces can be
// captured from real programs (experiment E14).
//
// Conventions (a simplified subset of Soar 4-era semantics):
//
//   - Rule kinds by name prefix: "apply*" rules are operator
//     applications; everything else ("propose*", "elaborate*", ...) is
//     an elaboration rule fired in waves.
//   - Preferences are WMEs of class "preference":
//     (preference ^goal <g> ^op <name> ^arg <a> ^arg2 <b> ^value
//     acceptable|best|reject). ^arg/^arg2 are optional.
//   - The decision procedure, per goal from the root down: candidates
//     are (op, arg, arg2) triples with an acceptable or best
//     preference and no reject; a unique best wins, else a unique
//     acceptable; multiple candidates raise a tie impasse; zero
//     candidates at the deepest goal ends the run (state no-change).
//   - Selecting an operator installs (operator ^goal <g> ^op ^arg
//     ^arg2), removes the goal's preferences, and pops any subgoals
//     below the deciding goal.
//   - A tie impasse pushes (goal ^id <sg> ^type tie ^for <g> ^status
//     active); subgoal rules typically add best/reject preferences for
//     the supergoal, letting the next decision succeed.
package soar

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/conflict"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/trace"
	"repro/internal/wm"
)

// Options configures an Agent.
type Options struct {
	// Out receives write-action output.
	Out io.Writer
	// MaxDecisions bounds the run (default 100).
	MaxDecisions int
	// MaxWaves bounds elaboration waves per phase (default 50).
	MaxWaves int
	// Trace, when true, instruments the matcher and exposes the
	// activation trace through Agent.Recorder.
	Trace bool
	// ExtraWM is loaded after the program's top-level make forms
	// (domain facts built programmatically, e.g. adjacency tables).
	ExtraWM []*ops5.WME
}

// Agent is a running Soar-lite agent.
type Agent struct {
	eng   *engine.Engine
	cs    *conflict.Set
	prods []*ops5.Production

	// Recorder is non-nil when Options.Trace was set.
	Recorder *trace.Recorder

	// goals is the goal stack, root first. Each entry is the goal id.
	goals []string

	// fired tracks instantiations that have already fired (Soar's
	// instantiation memory: an instantiation fires exactly once).
	fired map[string]bool

	opts Options

	// Decisions counts decision cycles executed.
	Decisions int
	// Impasses counts tie impasses raised.
	Impasses int
	// Waves counts elaboration waves executed.
	Waves int
	// Halted reports whether a rule executed halt.
	Halted bool

	subgoalSeq int
}

// NewAgent parses the program and builds the agent. The program's
// top-level (make ...) forms must include exactly one root goal:
// (make goal ^id <sym> ^status active ...).
func NewAgent(src string, opts Options) (*Agent, error) {
	prog, err := ops5.Parse(src)
	if err != nil {
		return nil, err
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		return nil, err
	}
	cs := conflict.NewSet(conflict.LEX)
	net.Sink = cs

	if opts.MaxDecisions == 0 {
		opts.MaxDecisions = 100
	}
	if opts.MaxWaves == 0 {
		opts.MaxWaves = 50
	}
	a := &Agent{
		cs:    cs,
		prods: prog.Productions,
		fired: make(map[string]bool),
		opts:  opts,
	}
	var matcher engine.Matcher = net
	if opts.Trace {
		a.Recorder = trace.NewRecorder("soar", net, cost.Default())
		matcher = a.Recorder
	}
	a.eng = engine.New(wm.New(), cs, matcher)
	a.eng.Out = opts.Out
	a.eng.Load(prog.InitialWM)
	a.eng.Load(opts.ExtraWM)

	for _, w := range prog.InitialWM {
		if w.Class() == "goal" && w.Get("status").SymName() == "active" {
			if id := w.Get("id"); id.Kind == ops5.SymValue {
				a.goals = append(a.goals, id.SymName())
			}
		}
	}
	if len(a.goals) != 1 {
		return nil, fmt.Errorf("soar: program must make exactly one active root goal, found %d", len(a.goals))
	}
	return a, nil
}

// Engine exposes the underlying engine (WM access, counters).
func (a *Agent) Engine() *engine.Engine { return a.eng }

// GoalStack returns the current goal ids, root first.
func (a *Agent) GoalStack() []string { return append([]string(nil), a.goals...) }

// isApplyRule reports whether a production is an operator application.
func isApplyRule(p *ops5.Production) bool {
	return strings.HasPrefix(p.Name, "apply")
}

// wave fires every unfired instantiation of the selected rule kind as
// one parallel batch; it reports how many fired.
func (a *Agent) wave(apply bool) (int, error) {
	var batch []ops5.Change
	consumed := make(map[int]bool)
	fired := 0
	for _, inst := range a.cs.Instantiations() {
		if isApplyRule(inst.Production) != apply {
			continue
		}
		key := inst.Key()
		if a.fired[key] {
			continue
		}
		skip := false
		for _, w := range inst.WMEs {
			if w != nil && consumed[w.TimeTag] {
				skip = true // another firing in this wave consumed it
				break
			}
		}
		if skip {
			continue
		}
		a.fired[key] = true
		var err error
		batch, err = a.eng.EvalRHS(inst, consumed, batch)
		if err != nil {
			return fired, err
		}
		fired++
		if a.eng.Halted {
			a.Halted = true
			break
		}
	}
	if len(batch) > 0 {
		a.eng.ApplyChanges(batch)
	}
	return fired, nil
}

// elaborate runs elaboration waves to quiescence.
func (a *Agent) elaborate() error {
	for i := 0; i < a.opts.MaxWaves; i++ {
		n, err := a.wave(false)
		if err != nil {
			return err
		}
		if n > 0 {
			a.Waves++
		}
		if n == 0 || a.Halted {
			return nil
		}
	}
	return fmt.Errorf("soar: elaboration did not reach quiescence in %d waves", a.opts.MaxWaves)
}

// candidate is one (op, arg, arg2) the decision procedure considers.
type candidate struct {
	op, arg, arg2 ops5.Value
	best, reject  bool
}

func candKey(op, arg, arg2 ops5.Value) string {
	return op.String() + "|" + arg.String() + "|" + arg2.String()
}

// decide attempts a decision for goal g. It returns the selected
// candidate, whether a decision was made, and whether a tie impasse
// should be raised.
func (a *Agent) decide(g string) (sel *candidate, decided, tie bool) {
	cands := map[string]*candidate{}
	for _, w := range a.eng.WM.OfClass("preference") {
		if w.Get("goal").SymName() != g {
			continue
		}
		op, arg, arg2 := w.Get("op"), w.Get("arg"), w.Get("arg2")
		key := candKey(op, arg, arg2)
		c := cands[key]
		if c == nil {
			c = &candidate{op: op, arg: arg, arg2: arg2}
			cands[key] = c
		}
		switch w.Get("value").SymName() {
		case "best":
			c.best = true
		case "reject":
			c.reject = true
		}
	}
	var bests, acceptables []*candidate
	for _, c := range cands {
		if c.reject {
			continue
		}
		if c.best {
			bests = append(bests, c)
		}
		acceptables = append(acceptables, c)
	}
	switch {
	case len(bests) == 1:
		return bests[0], true, false
	case len(bests) > 1:
		return nil, false, true
	case len(acceptables) == 1:
		return acceptables[0], true, false
	case len(acceptables) > 1:
		return nil, false, true
	default:
		return nil, false, false
	}
}

// install commits a decision at goal level (stack index), removing
// preferences, replacing the operator WME, and popping subgoals.
func (a *Agent) install(level int, sel *candidate) {
	g := a.goals[level]
	var batch []ops5.Change
	// Remove every preference for this goal.
	for _, w := range a.eng.WM.OfClass("preference") {
		if w.Get("goal").SymName() == g {
			batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: w})
		}
	}
	// Replace the goal's operator.
	for _, w := range a.eng.WM.OfClass("operator") {
		if w.Get("goal").SymName() == g {
			batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: w})
		}
	}
	opPairs := []any{"goal", ops5.Sym(g), "op", sel.op}
	if !sel.arg.Nil() {
		opPairs = append(opPairs, "arg", sel.arg)
	}
	if !sel.arg2.Nil() {
		opPairs = append(opPairs, "arg2", sel.arg2)
	}
	opWME := ops5.NewWME("operator", opPairs...)
	batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: opWME})
	// Pop subgoals below the deciding level: their goal WMEs, their
	// preferences/operators, and every WME tagged ^goal <subgoal-id>.
	for _, sub := range a.goals[level+1:] {
		for _, w := range a.eng.WM.Elements() {
			switch {
			case w.Class() == "goal" && w.Get("id").SymName() == sub,
				w.Get("goal").SymName() == sub:
				batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: w})
			}
		}
	}
	a.goals = a.goals[:level+1]
	a.eng.ApplyChanges(batch)
}

// impasse pushes a tie subgoal below goal g.
func (a *Agent) impasse(g string) {
	a.Impasses++
	a.subgoalSeq++
	id := fmt.Sprintf("sg%d", a.subgoalSeq)
	sub := ops5.NewWME("goal",
		"id", ops5.Sym(id),
		"type", ops5.Sym("tie"),
		"for", ops5.Sym(g),
		"status", ops5.Sym("active"))
	a.goals = append(a.goals, id)
	a.eng.ApplyChanges([]ops5.Change{{Kind: ops5.Insert, WME: sub}})
}

// Step runs one decision cycle: elaborate to quiescence, decide (top
// goal first), apply. It reports whether the agent can continue.
func (a *Agent) Step() (bool, error) {
	if a.Halted {
		return false, nil
	}
	if err := a.elaborate(); err != nil {
		return false, err
	}
	if a.Halted {
		return false, nil
	}
	// Decide from the root down; the highest decidable goal wins.
	for level := 0; level < len(a.goals); level++ {
		sel, decided, tie := a.decide(a.goals[level])
		switch {
		case decided:
			a.install(level, sel)
			a.Decisions++
			// Apply phase: operator-application waves to quiescence.
			for i := 0; i < a.opts.MaxWaves; i++ {
				n, err := a.wave(true)
				if err != nil {
					return false, err
				}
				if n == 0 || a.Halted {
					break
				}
			}
			return !a.Halted, nil
		case tie && level == len(a.goals)-1:
			// Tie at the deepest goal: raise a subgoal and elaborate
			// again next Step.
			a.impasse(a.goals[level])
			a.Decisions++
			return true, nil
		case tie:
			// A deeper subgoal is already working on this tie.
			continue
		}
	}
	// No goal can decide and no new tie: state no-change; stop.
	return false, nil
}

// Run executes decision cycles until halt, quiescence, or the decision
// bound. It returns the number of decisions executed.
func (a *Agent) Run() (int, error) {
	start := a.Decisions
	for a.Decisions-start < a.opts.MaxDecisions {
		ok, err := a.Step()
		if err != nil {
			return a.Decisions - start, err
		}
		if !ok {
			break
		}
	}
	return a.Decisions - start, nil
}
