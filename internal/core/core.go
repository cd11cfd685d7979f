// Package core is the top-level API of the production-system library:
// it assembles a parser-fed rule system from an OPS5 source text, a
// matcher (serial Rete, the paper's fine-grain parallel Rete, TREAT, or
// the naive rematcher), a conflict-resolution strategy and the
// recognize-act engine, behind one constructor.
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
	"repro/internal/fullstate"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
	"repro/internal/treat"
	"repro/internal/wm"
)

// MatcherKind selects the match algorithm.
type MatcherKind uint8

// The available match algorithms.
const (
	// SerialRete is the classic single-threaded Rete of §2.2.
	SerialRete MatcherKind = iota
	// ParallelRete is the paper's fine-grain parallel Rete (§4-5),
	// running node activations on a goroutine worker pool.
	ParallelRete
	// TREAT stores only alpha memories and recomputes joins (§3.2).
	TREAT
	// FullState stores tuples for all CE combinations (Oflazer's
	// scheme, the high end of §3.2).
	FullState
	// Naive rematches the whole working memory every cycle (§3.1).
	Naive
)

// String names the matcher kind.
func (k MatcherKind) String() string {
	switch k {
	case ParallelRete:
		return "parallel-rete"
	case TREAT:
		return "treat"
	case FullState:
		return "full-state"
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
	case "treat":
		return TREAT, nil
	case "full-state", "fullstate", "oflazer":
		return FullState, nil
	case "naive":
		return Naive, nil
	default:
		return SerialRete, fmt.Errorf("core: unknown matcher %q (rete|parallel-rete|treat|full-state|naive)", s)
	}
}

// Options configures a System.
type Options struct {
	// Matcher selects the match algorithm (default SerialRete).
	Matcher MatcherKind
	// Strategy selects conflict resolution (default LEX).
	Strategy conflict.Strategy
	// Workers caps the parallel matcher's lanes (default and upper
	// bound GOMAXPROCS); ignored by the other matchers.
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
	net     *rete.Network // non-nil for SerialRete
	pm      *prete.Matcher
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
	cs := conflict.NewSet(opts.Strategy)
	sys := &System{prods: prog.Productions, matcher: opts.Matcher}

	var m engine.Matcher
	switch opts.Matcher {
	case SerialRete:
		net, err := rete.Compile(prog.Productions)
		if err != nil {
			return nil, err
		}
		net.OnInsert = cs.Insert
		net.OnRemove = cs.Remove
		sys.net = net
		m = netMatcher{net}
	case ParallelRete:
		pm, err := prete.New(prog.Productions, opts.Workers)
		if err != nil {
			return nil, err
		}
		pm.OnInsert = cs.Insert
		pm.OnRemove = cs.Remove
		sys.pm = pm
		m = preteMatcher{pm}
	case TREAT:
		tm, err := treat.New(prog.Productions)
		if err != nil {
			return nil, err
		}
		tm.OnInsert = cs.Insert
		tm.OnRemove = cs.Remove
		m = treatMatcher{tm}
	case FullState:
		fm, err := fullstate.New(prog.Productions)
		if err != nil {
			return nil, err
		}
		fm.OnInsert = cs.Insert
		fm.OnRemove = cs.Remove
		m = fullstateMatcher{fm}
	case Naive:
		nm, err := naive.New(prog.Productions)
		if err != nil {
			return nil, err
		}
		nm.OnInsert = cs.Insert
		nm.OnRemove = cs.Remove
		m = naiveMatcher{nm}
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

// The matchers satisfy engine.Matcher and the profile, index and loss
// capabilities as they stand. What differs between them is where
// the work counters live — rete.Network.Stats is a field,
// prete.Matcher.Stats a method, and each matcher counts its own unit of
// match work — so each gets one adapter whose only method is MatchStats,
// translating the native counters into the matcher-neutral report. The
// matcher packages stay free of engine imports.

type netMatcher struct{ *rete.Network }

func (m netMatcher) MatchStats() obs.MatchStats {
	s := m.Network.Stats
	return obs.MatchStats{
		Changes:         int64(s.Changes),
		Comparisons:     s.TokenComparisons,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
	}
}

type preteMatcher struct{ *prete.Matcher }

// MatchStats includes the scheduler's counters.
func (m preteMatcher) MatchStats() obs.MatchStats {
	s := m.Matcher.Stats()
	return obs.MatchStats{
		Changes:         s.Changes,
		Comparisons:     s.Comparisons,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
		Tasks:           s.Tasks,
		Wakeups:         s.Wakeups,
		InlineBatches:   s.InlineBatches,
		Workers:         s.PerWorker,
	}
}

type treatMatcher struct{ *treat.Matcher }

func (m treatMatcher) MatchStats() obs.MatchStats {
	s := m.Matcher.Stats
	return obs.MatchStats{
		Changes:         int64(s.Changes),
		Comparisons:     s.JoinTuplesTested,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
	}
}

type fullstateMatcher struct{ *fullstate.Matcher }

func (m fullstateMatcher) MatchStats() obs.MatchStats {
	s := m.Matcher.Stats
	return obs.MatchStats{
		Changes:         int64(s.Changes),
		Comparisons:     s.ConsistencyChecks,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
	}
}

type naiveMatcher struct{ *naive.Matcher }

func (m naiveMatcher) MatchStats() obs.MatchStats {
	s := m.Matcher.Stats
	return obs.MatchStats{Changes: int64(s.Changes), Comparisons: s.ElementsMatched}
}

// Productions returns the compiled productions.
func (s *System) Productions() []*ops5.Production { return s.prods }

// MatcherKind reports which matcher the system uses.
func (s *System) MatcherKind() MatcherKind { return s.matcher }

// Network returns the compiled Rete network when the serial matcher is
// in use (nil otherwise); useful for statistics.
func (s *System) Network() *rete.Network { return s.net }

// ParallelMatcher returns the parallel matcher when in use (else nil).
func (s *System) ParallelMatcher() *prete.Matcher { return s.pm }

// Assert inserts WMEs built with ops5.NewWME as one batch.
func (s *System) Assert(wmes ...*ops5.WME) {
	s.Engine.Load(wmes)
}
