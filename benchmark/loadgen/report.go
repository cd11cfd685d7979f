package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Env records where and how a report was taken. Two reports compare
// only when Nproc and GOMAXPROCS agree: the parallel matcher's numbers
// mean something else on a different processor count.
type Env struct {
	Nproc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	Rounds       int     `json:"rounds"`
	RoundSeconds float64 `json:"round_seconds"`
}

// WorkloadReport is one workload's end-to-end result plus, when the
// traced run was made, its per-layer metrics.
type WorkloadReport struct {
	Result
	Layers map[string]Metric `json:"layers,omitempty"`
}

// Report is everything one psmbench run measured.
type Report struct {
	Env       Env              `json:"env"`
	Workloads []WorkloadReport `json:"workloads"`
}

// WriteFile stores the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// ReadReport loads a report written by WriteFile.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// PrintMetrics writes one row per metric — name, value, unit, and the
// spread of the rounds it was taken from, where it has rounds — sorted
// by name, under a heading.
func PrintMetrics(w io.Writer, heading string, metrics map[string]Metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, heading)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range names {
		m := metrics[name]
		spread := ""
		if len(m.Rounds) > 1 {
			spread = fmt.Sprintf("rounds spread %.1f%%", 100*Spread(m.Rounds))
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", name, m.Value, m.Unit, spread)
	}
	tw.Flush()
}

// PrintResultLine writes the line a one-workload run must end its
// standard output with: one JSON object with exactly the keys correct,
// attempted, failed and metrics, each metric as value and unit.
func PrintResultLine(w io.Writer, attempted, failed int, metrics map[string]Metric) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{failed == 0, attempted, failed, make(map[string]valueUnit, len(metrics))}
	for name, m := range metrics {
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// MetricDef is one end-to-end or per-layer metric as BENCHMARK.json
// declares it.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Contract is the part of BENCHMARK.json psmbench reads: the metric
// names, directions and bounds, and the workload list.
type Contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// ReadContract loads BENCHMARK.json.
func ReadContract(path string) (*Contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// setupSlackSeconds is the absolute change in setup_s that never
// counts, whatever the relative bound says: set-up is a fraction of a
// second, and process start-up jitters by tens of milliseconds.
const setupSlackSeconds = 0.05

// Verdicts of one (workload, metric) comparison.
const (
	VerdictBetter     = "better"
	VerdictWithin     = "within bound"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// Judge compares metric def's value in run b against run a. The change
// is relative to a, signed so that positive is worse. A metric whose
// rounds spread wider than its bound in either run cannot be told from
// noise and is unresolved rather than unchanged.
func Judge(def MetricDef, a, b Metric) (verdict string, worsening float64) {
	if a.Value == 0 {
		return VerdictUnresolved, 0
	}
	worsening = (b.Value - a.Value) / math.Abs(a.Value)
	if def.Better == "higher" {
		worsening = -worsening
	}
	if def.Name == "setup_s" && math.Abs(b.Value-a.Value) <= setupSlackSeconds {
		return VerdictWithin, worsening
	}
	switch {
	case math.Max(Spread(a.Rounds), Spread(b.Rounds)) > def.Bound:
		return VerdictUnresolved, worsening
	case worsening > def.Bound:
		return VerdictWorse, worsening
	case worsening < -def.Bound:
		return VerdictBetter, worsening
	}
	return VerdictWithin, worsening
}

// Compare prints one row per (workload, end-to-end metric) judging run
// b against run a under the contract's bounds, plus a failed-share row
// per workload (any increase is worse). It reports whether anything
// came out worse, and refuses runs taken on different processor counts.
func Compare(w io.Writer, c *Contract, a, b *Report) (worse bool, err error) {
	if a.Env.Nproc != b.Env.Nproc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return false, fmt.Errorf("runs are not comparable: nproc %d vs %d, GOMAXPROCS %d vs %d",
			a.Env.Nproc, b.Env.Nproc, a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	}
	byName := make(map[string]*WorkloadReport, len(b.Workloads))
	for i := range b.Workloads {
		byName[b.Workloads[i].Workload] = &b.Workloads[i]
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict\n")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb, ok := byName[wa.Workload]
		if !ok {
			return false, fmt.Errorf("workload %s is missing from the second run", wa.Workload)
		}
		for _, def := range c.EndToEnd {
			ma, okA := wa.Metrics[def.Name]
			mb, okB := wb.Metrics[def.Name]
			if !okA || !okB {
				return false, fmt.Errorf("workload %s: metric %s is missing from a run", wa.Workload, def.Name)
			}
			verdict, change := Judge(def, ma, mb)
			worse = worse || verdict == VerdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%s\n",
				wa.Workload, def.Name, ma.Value, mb.Value, 100*change, 100*def.Bound, verdict)
		}
		sa := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		sb := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		verdict := VerdictWithin
		if sb > sa {
			verdict, worse = VerdictWorse, true
		}
		fmt.Fprintf(tw, "%s\tfailed_op_share\t%.5g\t%.5g\t\tno increase\t%s\n", wa.Workload, sa, sb, verdict)
	}
	return worse, tw.Flush()
}
