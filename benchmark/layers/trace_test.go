package layers

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/benchmark/loadgen"
)

// TestTraceEveryWorkload makes the traced run of each workload (two
// rounds) and checks what the benchmark promises of it: every per-layer
// metric BENCHMARK.json names is printed, the shares sum to one, every
// depth arrives at the sizes depth 0 answered, and the layer that
// should dominate does. The bulk workload's replays take most of the
// time, so -short leaves it out.
func TestTraceEveryWorkload(t *testing.T) {
	contract, err := loadgen.ReadContract(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	for _, spec := range loadgen.Workloads {
		if testing.Short() && spec.Name == "bulk_prete" {
			continue
		}
		out, err := Trace(Options{BenchDir: "..", WorkDir: t.TempDir(), OutDir: outDir,
			Workload: spec.Name, Seed: 1, Nproc: 2})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", spec.Name, out.Failed, out.Attempted, out.Failures)
		}
		for _, def := range contract.PerLayer {
			if m, ok := out.Metrics[def.Name]; !ok || m.Unit != def.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", spec.Name, def.Name, m, def.Unit)
			}
		}
		if len(out.Metrics) != len(contract.PerLayer) {
			t.Errorf("%s: %d metrics traced, BENCHMARK.json names %d", spec.Name, len(out.Metrics), len(contract.PerLayer))
		}
		share := func(layer string) float64 { return out.Metrics["share."+layer].Value }
		var sum float64
		for name, m := range out.Metrics {
			if strings.HasPrefix(name, "share.") {
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: shares sum to %v", spec.Name, sum)
		}
		switch spec.Name {
		case "manners_rete":
			if inner := share("rete") + share("conflict") + share("engine"); inner < 0.5 {
				t.Errorf("manners_rete: rete+conflict+engine share %v, want the largest", inner)
			}
		case "chatter_http":
			if share("server") < 0.5 || share("durable") != 0 {
				t.Errorf("chatter_http: server share %v durable share %v, want server largest and no durable", share("server"), share("durable"))
			}
		case "chatter_wal":
			if share("durable") <= 0 || out.Metrics["durable.recover_s"].Value <= 0 {
				t.Errorf("chatter_wal: durable share %v, recover_s %v", share("durable"), out.Metrics["durable.recover_s"].Value)
			}
		case "bulk_prete":
			if out.Metrics["prete.true_speedup"].Value <= 0 || out.Metrics["prete.inline_batch_share"].Value >= 0.1 {
				t.Errorf("bulk_prete: true_speedup %v inline_batch_share %v: the pool did not run",
					out.Metrics["prete.true_speedup"].Value, out.Metrics["prete.inline_batch_share"].Value)
			}
		case "stream_fraud":
			if out.Metrics["engine.expired_per_event"].Value <= 0 {
				t.Errorf("stream_fraud: nothing expired")
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace_"+spec.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", spec.Name, err)
		}
	}
}
