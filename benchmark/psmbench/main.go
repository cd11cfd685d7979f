// Command psmbench is the repository's benchmark: a closed-loop load
// generator that builds and execs the real cmd/psmd, drives it only
// over the /v1 HTTP surface, checks every reply, and prints each
// metric by name and unit.
//
//	go run -C benchmark ./psmbench -seed 1
//
// runs the five workloads end to end, then each one's traced run
// (psmtrace, in-process and layer by layer), prints both, and
// writes the report to benchmark/out/. With -workload it measures one
// workload in one mode and ends its standard output with the result
// line BENCHMARK.json's contract asks for. "psmbench compare A.json
// B.json" judges report B against report A under the bounds in
// BENCHMARK.json.
//
// This command and its load generator import nothing from
// repro/internal; benchmark/layers holds every such import.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"repro/benchmark/loadgen"
)

const (
	rounds    = 10 // timed rounds per run; rates are their median
	setupReps = 3  // set-ups per run; setup_s is their median
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	workload := flag.String("workload", "", "measure this one workload and end with the contract's result line (default: all five, both modes)")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Float64("seconds", 15, "timed seconds per workload, split into ten rounds")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from the traced run")
	out := flag.String("out", "", "report file of a full run (default benchmark/out/run_seed<N>.json)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "psmbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		loadgen.KillAll()
		os.Exit(1)
	}()

	if err := run(*workload, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintf(os.Stderr, "psmbench: %v\n", err)
		loadgen.KillAll()
		os.Exit(1)
	}
}

// dirs locates the benchmark directory (holding rules/) from the
// working directory — `go run -C benchmark` starts there, a built
// binary may start at the repository root — and the repository root
// above it.
func dirs() (benchDir, repoRoot string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		for _, cand := range []string{dir, filepath.Join(dir, "benchmark")} {
			if _, err := os.Stat(filepath.Join(cand, "rules", "manners.ops")); err == nil {
				return cand, filepath.Dir(cand), nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", errors.New("cannot find benchmark/rules from the working directory")
		}
		dir = parent
	}
}

func run(workload string, seed int64, seconds float64, trace int, out string) error {
	benchDir, repoRoot, err := dirs()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	binDir := filepath.Join(repoRoot, ".bench_build")
	if err := os.MkdirAll(binDir, 0o777); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(binDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	b := &bench{repoRoot: repoRoot, binDir: binDir, seconds: seconds}
	b.cfg = loadgen.Config{
		BenchDir:     benchDir,
		WorkDir:      workDir,
		Seed:         seed,
		Nproc:        runtime.NumCPU(),
		Rounds:       rounds,
		RoundSeconds: seconds / rounds,
		SetupReps:    setupReps,
	}
	if workload != "" {
		return b.contractRun(workload, trace)
	}
	if out == "" {
		out = filepath.Join(benchDir, "out", fmt.Sprintf("run_seed%d.json", seed))
	}
	return b.fullRun(out)
}

type bench struct {
	repoRoot, binDir string
	seconds          float64
	cfg              loadgen.Config
}

// tracedResult is the result line psmtrace prints, read back.
type tracedResult struct {
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]loadgen.Metric `json:"metrics"`
}

// endToEnd builds psmd if needed and measures one workload.
func (b *bench) endToEnd(workload string) (*loadgen.Result, error) {
	if b.cfg.PsmdBin == "" {
		bin, err := loadgen.BuildPsmd(b.repoRoot, b.binDir)
		if err != nil {
			return nil, err
		}
		b.cfg.PsmdBin = bin
	}
	return loadgen.Run(b.cfg, workload)
}

// traced builds psmtrace — a separate binary, so that this one
// links nothing from repro/internal — runs it for one workload and
// decodes the result line it prints.
func (b *bench) traced(workload string) (*tracedResult, error) {
	bin := filepath.Join(b.binDir, "psmtrace")
	build := exec.Command("go", "build", "-o", bin, "./psmtrace")
	build.Dir = b.cfg.BenchDir
	if outp, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./psmtrace: %v\n%s", err, outp)
	}
	cmd := exec.Command(bin,
		"-workload", workload,
		"-seed", fmt.Sprint(b.cfg.Seed),
		"-seconds", fmt.Sprint(b.seconds),
		"-bench-dir", b.cfg.BenchDir,
		"-work-dir", b.cfg.WorkDir)
	cmd.Stderr = os.Stderr
	outp, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("psmtrace %s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outp)), "\n")
	var res tracedResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("psmtrace %s: bad result line: %w", workload, err)
	}
	return &res, nil
}

// contractRun measures one workload in one mode and prints the result
// line last.
func (b *bench) contractRun(workload string, trace int) error {
	switch trace {
	case 0:
		res, err := b.endToEnd(workload)
		if err != nil {
			return err
		}
		report(res)
		return loadgen.PrintResultLine(os.Stdout, res.Attempted, res.Failed, res.Metrics)
	case 1:
		res, err := b.traced(workload)
		if err != nil {
			return err
		}
		return loadgen.PrintResultLine(os.Stdout, res.Attempted, res.Failed, res.Metrics)
	}
	return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
}

// report prints one workload's end-to-end outcome for a human, on
// standard error so the contract's result line stays last on standard
// output.
func report(res *loadgen.Result) {
	w := os.Stderr
	loadgen.PrintMetrics(w, fmt.Sprintf("%s: %d operations attempted, %d failed", res.Workload, res.Attempted, res.Failed), res.Metrics)
	fmt.Fprintf(w, "  op_p50_ms is over %.0f timed operations", res.Info["op_samples"])
	if p, ok := res.Info["op_tail_percentile"]; ok {
		fmt.Fprintf(w, "; op_tail_ms (p%g, not gated) %.4g", p, res.Info["op_tail_ms"])
	}
	if s, ok := res.Info["recover_restart_s"]; ok {
		fmt.Fprintf(w, "; restart after kill -9 ready in %.3g s", s)
	}
	fmt.Fprintln(w)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// fullRun measures every workload end to end and traced, prints every
// metric, and writes the report for `psmbench compare`.
func (b *bench) fullRun(out string) error {
	rep := loadgen.Report{Env: loadgen.Env{
		Nproc:        b.cfg.Nproc,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(b.repoRoot),
		Seed:         b.cfg.Seed,
		Rounds:       b.cfg.Rounds,
		RoundSeconds: b.cfg.RoundSeconds,
	}}
	fmt.Fprintf(os.Stderr, "psmbench: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %d rounds of %.3g s\n",
		rep.Env.Nproc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit, b.cfg.Seed, rounds, b.cfg.RoundSeconds)
	failed := 0
	for _, spec := range loadgen.Workloads {
		res, err := b.endToEnd(spec.Name)
		if err != nil {
			return err
		}
		report(res)
		failed += res.Failed
		line, err := b.traced(spec.Name)
		if err != nil {
			return err
		}
		wr := loadgen.WorkloadReport{Result: *res, Layers: line.Metrics}
		// The in-process depth-0 replay against the black-box median:
		// what the process boundary and the kernel's TCP path add.
		if t0, ok := wr.Layers["trace.depth0_us_per_op"]; ok && t0.Value > 0 {
			wr.Info["e2e_over_depth0"] = res.Metrics["op_p50_ms"].Value * 1000 / t0.Value
		}
		failed += line.Failed
		rep.Workloads = append(rep.Workloads, wr)
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o777); err != nil {
		return err
	}
	if err := rep.WriteFile(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "psmbench: report written to %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d operations or checks failed", failed)
	}
	return nil
}

// commit names the measured commit, or "unknown" outside a git
// checkout.
func commit(repoRoot string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repoRoot
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compare implements `psmbench compare A.json B.json`; its exit code is
// 1 when any metric came out worse, 2 when the runs cannot be compared.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: psmbench compare A.json B.json")
		return 2
	}
	_, repoRoot, err := dirs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "psmbench: %v\n", err)
		return 2
	}
	contract, err := loadgen.ReadContract(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "psmbench: %v\n", err)
		return 2
	}
	var reps [2]*loadgen.Report
	for i, path := range args {
		if reps[i], err = loadgen.ReadReport(path); err != nil {
			fmt.Fprintf(os.Stderr, "psmbench: %v\n", err)
			return 2
		}
	}
	worse, err := loadgen.Compare(os.Stdout, contract, reps[0], reps[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "psmbench: %v\n", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}
