package loadgen

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := MetricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := MetricDef{Name: "wme_changes_per_s", Better: "higher", Bound: 0.1}
	setup := MetricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	steady := func(v float64) Metric { return Metric{Value: v, Rounds: []float64{v, v, v}} }
	for _, tc := range []struct {
		name string
		def  MetricDef
		a, b Metric
		want string
	}{
		{"slower latency", lower, steady(10), steady(12), VerdictWorse},
		{"faster latency", lower, steady(10), steady(8), VerdictBetter},
		{"latency inside the bound", lower, steady(10), steady(10.9), VerdictWithin},
		{"lower throughput", higher, steady(100), steady(85), VerdictWorse},
		{"higher throughput", higher, steady(100), steady(120), VerdictBetter},
		{"rounds wider than the bound", higher, Metric{Value: 100, Rounds: []float64{70, 100, 130}}, steady(100), VerdictUnresolved},
		{"set-up inside the absolute slack", setup, steady(0.10), steady(0.14), VerdictWithin},
		{"set-up beyond slack and bound", setup, steady(0.40), steady(0.60), VerdictWorse},
		{"no base", lower, steady(0), steady(1), VerdictUnresolved},
	} {
		if got, _ := Judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func testReport(nproc int, p50 float64, failed int) *Report {
	return &Report{
		Env: Env{Nproc: nproc, GOMAXPROCS: nproc},
		Workloads: []WorkloadReport{{Result: Result{
			Workload: "chatter_http", Attempted: 100, Failed: failed,
			Metrics: map[string]Metric{"op_p50_ms": {Value: p50, Unit: "ms"}},
		}}},
	}
}

func TestCompare(t *testing.T) {
	c := &Contract{EndToEnd: []MetricDef{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	var out bytes.Buffer
	worse, err := Compare(&out, c, testReport(2, 1.0, 0), testReport(2, 1.05, 0))
	if err != nil || worse {
		t.Fatalf("within bound: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), VerdictWithin) || !strings.Contains(out.String(), "failed_op_share") {
		t.Errorf("missing rows:\n%s", out.String())
	}
	if worse, _ = Compare(&out, c, testReport(2, 1.0, 0), testReport(2, 1.5, 0)); !worse {
		t.Error("a 50% slower median was not worse")
	}
	if worse, _ = Compare(&out, c, testReport(2, 1.0, 0), testReport(2, 1.0, 1)); !worse {
		t.Error("a rise in failed operations was not worse")
	}
	if _, err = Compare(&out, c, testReport(2, 1.0, 0), testReport(4, 1.0, 0)); err == nil {
		t.Error("runs on 2 and 4 processors were compared")
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	want := testReport(2, 1.25, 3)
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Env != want.Env || got.Workloads[0].Failed != 3 || got.Workloads[0].Metrics["op_p50_ms"].Value != 1.25 {
		t.Errorf("read back %+v", got)
	}
}
