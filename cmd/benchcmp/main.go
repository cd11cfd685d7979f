// Command benchcmp compares two go-test-JSON benchmark records (the
// BENCH_*.json files written by `make bench`) and fails when the new
// run regresses the old by more than a threshold. It exists because
// this repository tracks benchmark baselines in-tree and gates merges
// on them (`make bench-compare`) without external tooling.
//
// Usage:
//
//	benchcmp [-threshold 10] [-gate-allocs] [-gate-speedup] [-speedup-floor F] old.json new.json
//	benchcmp -loss bench.json
//
// The second form prints the loss-factor table recorded by
// BenchmarkPreteApply (per worker count: throughput, paper-§6 speedup
// numbers, and the share of the processor budget each loss component
// eats) from a single benchmark record — CI prints it on PRs that touch
// the parallel matcher.
//
// Regressions are judged per benchmark, per metric:
//
//   - ns/op: higher is worse
//   - metrics ending in "/s" (e.g. wme-changes/s): lower is worse
//   - B/op and allocs/op are printed for visibility but only gate when
//     -gate-allocs is set (allocation counts are deterministic in Go,
//     but byte sizes can shift with map growth thresholds).
//   - true-speedup (the paper-§6 ratio recorded by BenchmarkPreteApply:
//     serial Rete's wall time over the parallel matcher's on the same
//     script) gates when -gate-speedup is set,
//     and -speedup-floor additionally fails the run when any new
//     true-speedup value sits below an absolute floor — the guard
//     against the parallel matcher quietly falling behind the serial
//     matcher it is supposed to beat.
//
// Two records taken at different GOMAXPROCS are refused, not compared:
// a 1-CPU baseline says nothing about a 2-CPU run.
//
// Exit status: 0 when no gated metric regresses beyond the threshold,
// 1 on regression, 2 on usage or parse errors and on records that are
// not comparable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the go test -json event stream we need.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// resultLine matches one benchmark result after stream reassembly:
// name, iteration count, then tab-separated "value unit" metric pairs.
var resultLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// metricPair matches one "value unit" cell.
var metricPair = regexp.MustCompile(`^([0-9.eE+-]+)\s+(\S+)$`)

// parseFile reassembles benchmark result lines from a go-test-JSON file
// and returns benchmark -> metric unit -> value. Benchmark names keep
// go test's -N GOMAXPROCS suffix: two records compare only when taken at
// the same GOMAXPROCS (see procs), and then their names agree as they
// are.
func parseFile(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// Result lines may be split across multiple output events
	// ("BenchmarkFoo \t" in one, the numbers in the next), so
	// concatenate all output first and split on real newlines.
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	out := map[string]map[string]float64{}
	for _, line := range strings.Split(text.String(), "\n") {
		m := resultLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		metrics := map[string]float64{}
		for _, cell := range strings.Split(m[3], "\t") {
			pm := metricPair.FindStringSubmatch(strings.TrimSpace(cell))
			if pm == nil {
				continue
			}
			v, err := strconv.ParseFloat(pm[1], 64)
			if err != nil {
				continue
			}
			metrics[pm[2]] = v
		}
		if len(metrics) > 0 {
			out[name] = metrics
		}
	}
	return out, nil
}

// procs returns the GOMAXPROCS a record was taken at, read off its
// benchmark names: go test appends -N to every name when N > 1 and
// nothing when N is 1. A case name can end in a number of its own
// (workers-16), so only a suffix common to every name in the record
// counts.
func procs(rec map[string]map[string]float64) int {
	n := 0
	for name := range rec {
		i := strings.LastIndexByte(name, '-')
		v, err := strconv.Atoi(name[i+1:])
		if i < 0 || err != nil || v < 2 || (n != 0 && v != n) {
			return 1
		}
		n = v
	}
	return max(n, 1)
}

// lowerIsBetter reports the regression direction for a metric unit.
// The second return is whether the metric gates the comparison at all.
func lowerIsBetter(unit string, gateAllocs, gateSpeedup bool) (lower, gated bool) {
	switch {
	case unit == "ns/op":
		return true, true
	case strings.HasSuffix(unit, "/s"):
		return false, true
	case unit == "allocs/op" || unit == "B/op":
		return true, gateAllocs
	case unit == "true-speedup":
		// The paper-§6 headline number: gated only when asked
		// (-gate-speedup), because it is meaningful to gate solely for
		// the parallel matcher benchmark.
		return false, gateSpeedup
	default:
		// Paper-model metrics (concurrency, loss shares, ...) are
		// recorded for the EXPERIMENTS tables, not gated here.
		return false, false
	}
}

// lossColumns are the per-benchmark metrics of the -loss table, in
// print order (recorded by BenchmarkPreteApply via b.ReportMetric).
var lossColumns = []string{
	"wme-changes/s", "true-speedup", "est-speedup", "nominal-conc", "loss-factor",
	"match-frac", "lockwait-frac", "sched-frac", "idle-frac", "spawn-frac",
}

// printLossTable renders the loss-factor metrics of one benchmark
// record as a fixed-width table, one row per benchmark that carries a
// loss-factor metric, sorted by name.
func printLossTable(path string) error {
	rec, err := parseFile(path)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rec))
	for name, metrics := range rec {
		if _, ok := metrics["loss-factor"]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("%s: no loss-factor metrics found", path)
	}
	sort.Strings(names)
	fmt.Printf("%-40s", "benchmark")
	for _, c := range lossColumns {
		fmt.Printf(" %13s", c)
	}
	fmt.Println()
	for _, name := range names {
		fmt.Printf("%-40s", name)
		for _, c := range lossColumns {
			if v, ok := rec[name][c]; ok {
				fmt.Printf(" %13.4g", v)
			} else {
				fmt.Printf(" %13s", "-")
			}
		}
		fmt.Println()
	}
	return nil
}

func main() {
	threshold := flag.Float64("threshold", 10, "allowed regression in percent")
	gateAllocs := flag.Bool("gate-allocs", false, "also fail on allocs/op and B/op regressions")
	gateSpeedup := flag.Bool("gate-speedup", false, "also fail on true-speedup regressions beyond -threshold")
	speedupFloor := flag.Float64("speedup-floor", 0, "fail when any true-speedup in the new record is below this absolute floor (0 disables; 1.0 = never slower than serial)")
	loss := flag.Bool("loss", false, "print the loss-factor table from a single record instead of comparing two")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchcmp [-threshold pct] [-gate-allocs] [-gate-speedup] [-speedup-floor F] old.json new.json\n"+
			"       benchcmp -loss bench.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *loss {
		if flag.NArg() != 1 {
			flag.Usage()
			os.Exit(2)
		}
		if err := printLossTable(flag.Arg(0)); err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	cur, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}

	if o, c := procs(old), procs(cur); o != c {
		fmt.Fprintf(os.Stderr, "benchcmp: %s was taken at GOMAXPROCS=%d, %s at GOMAXPROCS=%d: not comparable\n",
			flag.Arg(0), o, flag.Arg(1), c)
		os.Exit(2)
	}

	failed := false
	compared := 0
	for name, oldMetrics := range old {
		curMetrics, ok := cur[name]
		if !ok {
			fmt.Printf("%-40s missing from new run\n", name)
			failed = true
			continue
		}
		for unit, ov := range oldMetrics {
			nv, ok := curMetrics[unit]
			if !ok || ov == 0 {
				continue
			}
			compared++
			lower, gated := lowerIsBetter(unit, *gateAllocs, *gateSpeedup)
			deltaPct := (nv - ov) / ov * 100
			worse := deltaPct
			if !lower {
				worse = -deltaPct
			}
			status := "ok"
			if gated && worse > *threshold {
				status = "REGRESSION"
				failed = true
			} else if !gated {
				status = "info"
			}
			fmt.Printf("%-40s %-16s %14.4g -> %14.4g  %+7.2f%%  %s\n",
				name, unit, ov, nv, deltaPct, status)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchcmp: no comparable benchmark metrics found")
		os.Exit(2)
	}
	// The absolute floor is judged on the new record alone: a baseline
	// captured on different hardware cannot excuse the parallel matcher
	// running slower than the floor here and now.
	if *speedupFloor > 0 {
		names := make([]string, 0, len(cur))
		for name := range cur {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v, ok := cur[name]["true-speedup"]
			if !ok {
				continue
			}
			if v < *speedupFloor {
				fmt.Printf("%-40s %-16s %14.4g below floor %g  REGRESSION\n",
					name, "true-speedup", v, *speedupFloor)
				failed = true
			}
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchcmp: regression beyond %.0f%% threshold\n", *threshold)
		os.Exit(1)
	}
	fmt.Printf("benchcmp: %d metrics within %.0f%% threshold\n", compared, *threshold)
}
