// Command psmtrace is psmbench's traced run: it replays a prefix of one
// workload's input in-process at four depths and prints the per-layer
// metrics (see package layers). psmbench builds and runs it for
// -trace 1; it is a separate binary so that psmbench itself links
// nothing from repro/internal.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/benchmark/layers"
	"repro/benchmark/loadgen"
)

func main() {
	workload := flag.String("workload", "", "workload to trace")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Float64("seconds", 15, "time budget of the depth replays")
	benchDir := flag.String("bench-dir", ".", "benchmark directory (holding rules/)")
	workDir := flag.String("work-dir", "", "scratch directory for durable state")
	flag.Parse()
	if *workDir == "" {
		dir, err := os.MkdirTemp("", "psmtrace-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "psmtrace: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		*workDir = dir
	}
	out, err := layers.Trace(layers.Options{
		BenchDir: *benchDir,
		WorkDir:  *workDir,
		OutDir:   filepath.Join(*benchDir, "out"),
		Workload: *workload,
		Seed:     *seed,
		Nproc:    runtime.NumCPU(),
		Budget:   time.Duration(*seconds * float64(time.Second)),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "psmtrace: %v\n", err)
		os.Exit(1)
	}
	loadgen.PrintMetrics(os.Stderr, fmt.Sprintf("%s: traced run, %d checks, %d failed", *workload, out.Attempted, out.Failed), out.Metrics)
	for _, f := range out.Failures {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", f)
	}
	if err := loadgen.PrintResultLine(os.Stdout, out.Attempted, out.Failed, out.Metrics); err != nil {
		fmt.Fprintf(os.Stderr, "psmtrace: %v\n", err)
		os.Exit(1)
	}
}
