// Package core is the top-level API of the production-system library:
// it assembles a parser-fed rule system from an OPS5 source text, one
// of two served executors (the paper's fine-grain parallel Rete, which
// also runs Rete on one processor as its one-lane case, or the naive
// rematcher), a conflict-resolution strategy and the recognize-act
// engine, behind one constructor. Each matcher reports its own work
// (engine.StatsProvider), so the engine holds the matcher itself. The
// serial rete.Network is the traced reference executor of the
// reproduction, and TREAT and Oflazer's full-state scheme, the §3.2
// analysis baselines, are not served either; the reproduction builds
// them through internal/matchtest.
//
// Quickstart:
//
//	sys, err := core.NewSystem(src, core.Options{Matcher: core.ParallelRete})
//	if err != nil { ... }
//	cycles, err := sys.Run()
package core

import (
	"fmt"
	"io"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
	"repro/internal/wm"
)

// MatcherKind selects the match algorithm.
type MatcherKind uint8

// The available match algorithms.
const (
	// SerialRete is the Rete of §2.2 on one processor: the parallel
	// matcher pinned to one lane, whatever Options.Workers says.
	SerialRete MatcherKind = iota
	// ParallelRete is the paper's fine-grain parallel Rete (§4-5),
	// running node activations on up to Options.Workers lanes.
	ParallelRete
	// Naive rematches the whole working memory every cycle (§3.1); it
	// is the reference the other two are checked against.
	Naive
)

// String names the matcher kind.
func (k MatcherKind) String() string {
	switch k {
	case ParallelRete:
		return "parallel-rete"
	case Naive:
		return "naive"
	default:
		return "rete"
	}
}

// ParseMatcherKind converts a name (as printed by String) to a kind.
func ParseMatcherKind(s string) (MatcherKind, error) {
	switch s {
	case "rete", "serial", "serial-rete":
		return SerialRete, nil
	case "parallel", "parallel-rete", "prete":
		return ParallelRete, nil
	case "naive":
		return Naive, nil
	default:
		return SerialRete, fmt.Errorf("core: unknown matcher %q (rete|parallel-rete|naive)", s)
	}
}

// Options configures a System.
type Options struct {
	// Matcher selects the match algorithm (default SerialRete).
	Matcher MatcherKind
	// Strategy selects conflict resolution (default LEX).
	Strategy conflict.Strategy
	// Workers caps the parallel matcher's lanes (default and upper
	// bound GOMAXPROCS); ignored by the other kinds.
	Workers int
	// Output receives write-action output (default: discarded).
	Output io.Writer
	// MaxCycles bounds Run (default: unbounded).
	MaxCycles int
	// ParallelFirings fires up to N non-conflicting instantiations per
	// cycle (default 1).
	ParallelFirings int
	// NoInitialWM skips loading the program's top-level (make ...)
	// forms, leaving working memory empty. Crash recovery
	// (internal/durable) builds systems this way and then restores a
	// snapshot — the snapshot already contains the post-load state.
	NoInitialWM bool
}

// System is a ready-to-run production system.
type System struct {
	*engine.Engine
	prods   []*ops5.Production
	matcher MatcherKind
	pm      *prete.Matcher // non-nil for the Rete kinds
}

// NewSystem parses src (productions plus optional top-level make forms)
// and assembles a system.
func NewSystem(src string, opts Options) (*System, error) {
	prog, err := ops5.Parse(src)
	if err != nil {
		return nil, err
	}
	return NewSystemFromProgram(prog, opts)
}

// NewSystemFromProgram assembles a system from a parsed program.
func NewSystemFromProgram(prog *ops5.Program, opts Options) (*System, error) {
	var plan *rete.Plan
	if opts.Matcher != Naive {
		var err error
		if plan, err = rete.CompilePlan(prog.Productions); err != nil {
			return nil, err
		}
	}
	return NewSystemOnPlan(prog, plan, opts)
}

// NewSystemOnPlan assembles a system from a parsed program and its
// compiled Rete plan, both of which it only reads, so any number of
// systems may share one program and plan. The naive matcher ignores
// the plan, which may then be nil.
func NewSystemOnPlan(prog *ops5.Program, plan *rete.Plan, opts Options) (*System, error) {
	cs := conflict.NewSet(opts.Strategy)
	sys := &System{prods: prog.Productions, matcher: opts.Matcher}

	var m engine.Matcher
	switch opts.Matcher {
	case SerialRete, ParallelRete:
		workers := opts.Workers
		if opts.Matcher == SerialRete {
			workers = 1
		}
		pm := prete.NewOnPlan(plan, prete.Config{Workers: workers})
		pm.Sink = cs
		sys.pm, m = pm, pm
	case Naive:
		nm, err := naive.New(prog.Productions, cs)
		if err != nil {
			return nil, err
		}
		m = nm
	default:
		return nil, fmt.Errorf("core: unknown matcher kind %d", opts.Matcher)
	}

	e := engine.New(wm.New(), cs, m)
	e.Out = opts.Output
	e.MaxCycles = opts.MaxCycles
	e.ParallelFirings = opts.ParallelFirings
	sys.Engine = e
	if !opts.NoInitialWM {
		e.Load(prog.InitialWM)
	}
	return sys, nil
}

// Productions returns the compiled productions.
func (s *System) Productions() []*ops5.Production { return s.prods }

// MatcherKind reports which matcher the system uses.
func (s *System) MatcherKind() MatcherKind { return s.matcher }

// ParallelMatcher returns the Rete kinds' matcher, one lane for
// SerialRete (nil for Naive).
func (s *System) ParallelMatcher() *prete.Matcher { return s.pm }

// Assert inserts WMEs built with ops5.NewWME as one batch.
func (s *System) Assert(wmes ...*ops5.WME) {
	s.Engine.Load(wmes)
}
