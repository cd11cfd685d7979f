// Command ops5run executes an OPS5 program file through the
// recognize-act engine with a selectable matcher and strategy.
//
// Usage:
//
//	ops5run [-matcher rete|parallel-rete|naive] [-strategy lex|mea]
//	        [-cycles N] [-firings N] [-workers N] [-stats] [-loss] program.ops
//
// The program file contains (p ...) productions and optional top-level
// (make ...) forms for the initial working memory.
//
// With a Rete matcher, -loss prints the paper-§6 loss-factor
// table after the run. Example (Miss Manners, 16 guests, 4 lanes; the
// spawn row is the hand-off of lanes to idle helpers of the process's
// lane pool, so it is near zero; -workers is a lane cap, clamped to
// GOMAXPROCS):
//
//	loss-factor accounting (paper §6):
//	  workers:             4
//	  batches:             167
//	  apply wall:          0.013127s (seed 0.000075s, active 0.011210s, merge 0.001842s)
//	  serial estimate:     0.011081s
//	  true speedup:        0.84
//	  nominal concurrency: 0.99
//	  loss factor:         1.18 (paper: 1.93 at 32 processors)
//	  decomposition of the 4x apply budget:
//	    useful_match       0.009164s   17.5%
//	    memory_contention  0.000862s    1.6%
//	    scheduling         0.001111s    2.1%
//	    idle               0.033690s   64.2%
//	    spawn              0.000011s    0.0%
//	    serial_seed_merge  0.007668s   14.6%
//	    other              0.000000s    0.0%
//
// Batches below the scheduler's profitability threshold run inline on
// the caller and appear as pure match time; on a multi-core host the
// idle share shrinks with real parallel lanes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/rete"
)

func main() {
	matcherName := flag.String("matcher", "rete", "match algorithm: rete, parallel-rete, naive")
	strategyName := flag.String("strategy", "lex", "conflict resolution: lex or mea")
	cycles := flag.Int("cycles", 0, "maximum recognize-act cycles (0 = unbounded)")
	firings := flag.Int("firings", 1, "parallel firings per cycle")
	workers := flag.Int("workers", 0, "parallel matcher workers (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print run statistics and what the matcher reports of its work "+
		"(the paper's per-change counts, affected productions and node activations, come from the "+
		"reference network's activation trace, as go run ./cmd/experiments -exp e9 prints them)")
	loss := flag.Bool("loss", false, "print loss-factor accounting (rete and parallel-rete)")
	network := flag.Bool("network", false, "dump the compiled Rete network and exit (rete and parallel-rete)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ops5run [flags] program.ops")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	kind, err := core.ParseMatcherKind(*matcherName)
	if err != nil {
		fatal(err)
	}
	strategy, err := conflict.ParseStrategy(*strategyName)
	if err != nil {
		fatal(err)
	}

	prog, err := ops5.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	var plan *rete.Plan
	if kind != core.Naive {
		if plan, err = rete.CompilePlan(prog.Productions); err != nil {
			fatal(err)
		}
	}
	if *network {
		if plan == nil {
			fatal(fmt.Errorf("-network requires a Rete matcher"))
		}
		plan.Dump(os.Stdout)
		return
	}
	sys, err := core.NewSystemOnPlan(prog, plan, core.Options{
		Matcher:         kind,
		Strategy:        strategy,
		Workers:         *workers,
		Output:          os.Stdout,
		MaxCycles:       *cycles,
		ParallelFirings: *firings,
		NoInitialWM:     true,
	})
	if err != nil {
		fatal(err)
	}
	sys.Load(prog.InitialWM)
	start := time.Now()
	ran, err := sys.Run()
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if *stats {
		fmt.Fprintf(os.Stderr, "matcher:    %s\n", sys.MatcherKind())
		fmt.Fprintf(os.Stderr, "cycles:     %d\n", ran)
		fmt.Fprintf(os.Stderr, "firings:    %d\n", sys.Fired)
		fmt.Fprintf(os.Stderr, "wm changes: %d\n", sys.TotalChanges)
		fmt.Fprintf(os.Stderr, "wm size:    %d\n", sys.WM.Size())
		fmt.Fprintf(os.Stderr, "halted:     %v\n", sys.Halted)
		fmt.Fprintf(os.Stderr, "elapsed:    %s\n", elapsed)
		if elapsed > 0 && sys.TotalChanges > 0 {
			fmt.Fprintf(os.Stderr, "throughput: %.0f wme-changes/sec\n",
				float64(sys.TotalChanges)/elapsed.Seconds())
		}
		// Match work comes through engine.StatsProvider, every
		// matcher's one report; the index report is the parallel
		// matcher's own (both Rete kinds, not naive).
		if p, ok := sys.Matcher.(engine.StatsProvider); ok {
			st := p.MatchStats()
			fmt.Fprintf(os.Stderr, "match comparisons:     %d\n", st.Comparisons)
			fmt.Fprintf(os.Stderr, "conflict ins/rem:      %d/%d\n", st.ConflictInserts, st.ConflictRemoves)
			if st.Tasks > 0 {
				fmt.Fprintf(os.Stderr, "node activations:      %d on %d lane(s)\n", st.Tasks, len(st.Workers))
			}
		}
		if pm := sys.ParallelMatcher(); pm != nil {
			ix := pm.IndexInfo()
			fmt.Fprintf(os.Stderr, "indexed joins:         %d (%d fallback)\n", ix.IndexedNodes, ix.FallbackNodes)
			fmt.Fprintf(os.Stderr, "hash buckets:          %d (max depth %d)\n", ix.Buckets, ix.MaxBucket)
		}
	}
	if *loss {
		pm := sys.ParallelMatcher()
		if pm == nil {
			fatal(fmt.Errorf("-loss requires a matcher with loss accounting (rete or parallel-rete)"))
		}
		printLoss(os.Stderr, pm.Loss())
	}
}

// printLoss renders a loss report as the paper-§6 style table: speedup
// numbers first, then the phase and decomposition breakdowns.
func printLoss(w io.Writer, l obs.LossReport) {
	fmt.Fprintf(w, "loss-factor accounting (paper §6):\n")
	fmt.Fprintf(w, "  workers:             %d\n", l.Workers)
	fmt.Fprintf(w, "  batches:             %d\n", l.Batches)
	fmt.Fprintf(w, "  apply wall:          %.6fs (seed %.6fs, active %.6fs, merge %.6fs)\n",
		l.ApplySeconds, l.SeedSeconds, l.ActiveSeconds, l.MergeSeconds)
	fmt.Fprintf(w, "  serial estimate:     %.6fs\n", l.SerialEstimateSeconds)
	fmt.Fprintf(w, "  true speedup:        %.2f\n", l.TrueSpeedup)
	fmt.Fprintf(w, "  nominal concurrency: %.2f\n", l.NominalConcurrency)
	fmt.Fprintf(w, "  loss factor:         %.2f (paper: 1.93 at 32 processors)\n", l.LossFactor)
	fmt.Fprintf(w, "  phases (worker-seconds over all lanes):\n")
	for _, p := range l.Phases {
		fmt.Fprintf(w, "    %-11s %.6f\n", p.Phase, p.Seconds)
	}
	fmt.Fprintf(w, "  decomposition of the %dx apply budget:\n", l.Workers)
	for _, c := range l.Decomposition {
		fmt.Fprintf(w, "    %-18s %.6fs  %5.1f%%\n", c.Name, c.Seconds, 100*c.Share)
	}
	fmt.Fprintf(w, "  task sizes (activations by execution time):\n")
	prev := int64(0)
	for _, b := range l.TaskSizes {
		if b.UpToNanos > 0 {
			fmt.Fprintf(w, "    <=%-8dns %d\n", b.UpToNanos, b.Count)
			prev = b.UpToNanos
		} else {
			fmt.Fprintf(w, "    >%-9dns %d\n", prev, b.Count)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ops5run:", err)
	os.Exit(1)
}
