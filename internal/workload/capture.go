package workload

import (
	"fmt"
	"io"

	"repro/internal/conflict"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/trace"
	"repro/internal/wm"
)

// RunConfig configures a live, instrumented run of a real OPS5 program.
type RunConfig struct {
	// Strategy is the conflict-resolution strategy (default LEX).
	Strategy conflict.Strategy
	// MaxCycles bounds the run (0 = until quiescence or halt).
	MaxCycles int
	// ParallelFirings fires up to N non-conflicting instantiations per
	// cycle (default 1).
	ParallelFirings int
	// Out receives write-action output; nil discards it.
	Out io.Writer
}

// Capture parses an OPS5 program, runs it on the serial Rete matcher
// with trace instrumentation, and returns the recorder (whose Trace
// field holds the activation trace and whose Net field exposes match
// statistics) together with the engine (for firing counts and WM
// state).
func Capture(name, src string, extraWM []*ops5.WME, cfg RunConfig) (*trace.Recorder, *engine.Engine, error) {
	prog, err := ops5.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		return nil, nil, err
	}
	cs := conflict.NewSet(cfg.Strategy)
	net.Sink = cs
	rec := trace.NewRecorder(name, net, cost.Default())

	e := engine.New(wm.New(), cs, rec)
	e.Out = cfg.Out
	e.MaxCycles = cfg.MaxCycles
	e.ParallelFirings = cfg.ParallelFirings

	e.Load(prog.InitialWM)
	e.Load(extraWM)
	firedBefore := e.Fired
	if _, err := e.Run(); err != nil {
		return nil, nil, err
	}
	rec.NoteFiring(e.Fired - firedBefore)
	return rec, e, nil
}

// EightPuzzleWM builds the initial working memory for the eight-puzzle
// program: the 3x3 adjacency graph, the tile layout (0 marks the
// blank), and the move counter.
//
// The layout is given row-major; exactly one entry must be 0.
func EightPuzzleWM(layout [9]int, limit int) ([]*ops5.WME, error) {
	var wmes []*ops5.WME
	// Row-major adjacency on the 3x3 grid, positions 1..9.
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			p := r*3 + c + 1
			add := func(q int) {
				wmes = append(wmes, ops5.NewWME("adjacent", "from", p, "to", q))
			}
			if c > 0 {
				add(p - 1)
			}
			if c < 2 {
				add(p + 1)
			}
			if r > 0 {
				add(p - 3)
			}
			if r < 2 {
				add(p + 3)
			}
		}
	}
	blanks := 0
	for i, v := range layout {
		if v == 0 {
			wmes = append(wmes, ops5.NewWME("blank", "pos", i+1))
			blanks++
			continue
		}
		wmes = append(wmes, ops5.NewWME("tile", "val", v, "pos", i+1))
	}
	if blanks != 1 {
		return nil, fmt.Errorf("workload: eight-puzzle layout needs exactly one blank, found %d", blanks)
	}
	wmes = append(wmes, ops5.NewWME("counter", "moves", 0, "limit", limit))
	return wmes, nil
}

// BlocksWorldWM builds the initial working memory for the blocks-world
// program: initial stacks (bottom to top) and goal (top, below) pairs.
func BlocksWorldWM(stacks [][]string, goals [][2]string) []*ops5.WME {
	var wmes []*ops5.WME
	wmes = append(wmes, ops5.NewWME("task", "status", "unstacking"))
	for _, stack := range stacks {
		below := "table"
		for _, b := range stack {
			wmes = append(wmes, ops5.NewWME("on", "top", b, "below", below))
			below = b
		}
	}
	for _, g := range goals {
		wmes = append(wmes, ops5.NewWME("goal-on", "top", g[0], "below", g[1], "satisfied", "no"))
	}
	return wmes
}
