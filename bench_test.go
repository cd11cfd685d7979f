// Package repro_test holds the benchmark harness: one benchmark per
// table and figure in the paper's evaluation. Each benchmark reports
// the paper's metric through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the numbers behind every figure (see EXPERIMENTS.md for
// the paper-vs-measured record).
package repro_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/archcmp"
	"repro/internal/core"
	"repro/internal/matchtest"
	"repro/internal/model"
	"repro/internal/ops5"
	"repro/internal/partition"
	"repro/internal/prete"
	"repro/internal/psm"
	"repro/internal/rete"
	"repro/internal/trace"
	"repro/internal/workload"
)

// systemTraces caches the synthetic workload traces across benchmarks.
var systemTraces = func() map[string]*trace.Trace {
	out := map[string]*trace.Trace{}
	for _, p := range workload.Systems() {
		out[p.Name] = workload.Generate(p)
	}
	return out
}()

// BenchmarkE1StateSaving reproduces §3.1: the per-change work of the
// state-saving Rete matcher vs the naive rematcher on the same program
// and change script. Metrics: instructions-equivalent work ratio.
func BenchmarkE1StateSaving(b *testing.B) {
	m := model.PaperCosts()
	b.ReportMetric(m.BreakEvenRatio(), "break-even-ratio")
	b.ReportMetric(m.Advantage(0.005), "advantage-at-0.5%")

	rng := rand.New(rand.NewSource(11))
	params := matchtest.DefaultGenParams()
	params.Productions = 12
	prods := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, 40, 2)

	b.Run("rete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := core.NewSystemFromProgram(&ops5.Program{Productions: prods}, core.Options{Matcher: core.SerialRete})
			if err != nil {
				b.Fatal(err)
			}
			for _, batch := range script.Batches {
				sys.Matcher.Apply(cloneBatch(batch))
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := core.NewSystemFromProgram(&ops5.Program{Productions: prods}, core.Options{Matcher: core.Naive})
			if err != nil {
				b.Fatal(err)
			}
			for _, batch := range script.Batches {
				sys.Matcher.Apply(cloneBatch(batch))
			}
		}
	})
}

func cloneBatch(batch []ops5.Change) []ops5.Change {
	out := make([]ops5.Change, len(batch))
	for i, ch := range batch {
		w := ch.WME.Clone()
		w.TimeTag = ch.WME.TimeTag
		out[i] = ops5.Change{Kind: ch.Kind, WME: w}
	}
	return out
}

// BenchmarkE2Granularity reproduces §4's production-level vs
// node-level parallelism comparison (unbounded processors).
func BenchmarkE2Granularity(b *testing.B) {
	tr := systemTraces["r1-soar"]
	b.Run("production-level", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			cfg := psm.DefaultConfig(1024)
			cfg.ProductionLevel = true
			r = psm.Simulate(tr, cfg)
		}
		b.ReportMetric(r.TrueSpeedup, "speedup")
	})
	b.Run("node-level", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			r = psm.Simulate(tr, psm.DefaultConfig(1024))
		}
		b.ReportMetric(r.TrueSpeedup, "speedup")
	})
}

// BenchmarkFig61Concurrency reproduces Figure 6-1: one sub-benchmark
// per workload, reporting concurrency on 32 processors.
func BenchmarkFig61Concurrency(b *testing.B) {
	for _, p := range workload.Systems() {
		tr := systemTraces[p.Name]
		b.Run(p.Name, func(b *testing.B) {
			var r psm.Result
			for i := 0; i < b.N; i++ {
				r = psm.Simulate(tr, psm.DefaultConfig(32))
			}
			b.ReportMetric(r.Concurrency, "concurrency@32")
			b.ReportMetric(r.TrueSpeedup, "speedup@32")
		})
	}
}

// BenchmarkFig62Speed reproduces Figure 6-2: execution speed in
// wme-changes/sec on 32 2-MIPS processors per workload.
func BenchmarkFig62Speed(b *testing.B) {
	for _, p := range workload.Systems() {
		tr := systemTraces[p.Name]
		b.Run(p.Name, func(b *testing.B) {
			var r psm.Result
			for i := 0; i < b.N; i++ {
				r = psm.Simulate(tr, psm.DefaultConfig(32))
			}
			b.ReportMetric(r.WMChangesPerSec, "wme-changes/s")
			b.ReportMetric(r.FiringsPerSec, "firings/s")
		})
	}
}

// BenchmarkE5LostFactor reproduces §6's true-speed-up accounting: the
// eight-workload averages at 32 processors.
func BenchmarkE5LostFactor(b *testing.B) {
	var sumC, sumT, sumL, sumS float64
	var n float64
	for i := 0; i < b.N; i++ {
		sumC, sumT, sumL, sumS, n = 0, 0, 0, 0, 0
		for _, tr := range systemTraces {
			r := psm.Simulate(tr, psm.DefaultConfig(32))
			sumC += r.Concurrency
			sumT += r.TrueSpeedup
			sumL += r.LostFactor
			sumS += r.WMChangesPerSec
			n++
		}
	}
	b.ReportMetric(sumC/n, "avg-concurrency")
	b.ReportMetric(sumT/n, "avg-speedup")
	b.ReportMetric(sumL/n, "avg-lost-factor")
	b.ReportMetric(sumS/n, "avg-wme/s")
}

// BenchmarkE6Architectures reproduces the §7 comparison table.
func BenchmarkE6Architectures(b *testing.B) {
	var rows []archcmp.Row
	for i := 0; i < b.N; i++ {
		r := psm.Simulate(systemTraces["r1-soar"], psm.DefaultConfig(32))
		rows = archcmp.Compare(r.WMChangesPerSec, 32, 2.0)
	}
	for _, row := range rows {
		name := sanitizeMetric(row.Machine)
		b.ReportMetric(row.ModelWMEPerSec, name+"-wme/s")
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkE7Scheduler reproduces §5's hardware vs software task
// scheduler comparison on 32 processors.
func BenchmarkE7Scheduler(b *testing.B) {
	tr := systemTraces["mud"]
	b.Run("hardware", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			r = psm.Simulate(tr, psm.DefaultConfig(32))
		}
		b.ReportMetric(r.WMChangesPerSec, "wme-changes/s")
	})
	b.Run("software", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			cfg := psm.DefaultConfig(32)
			cfg.Scheduler = psm.SoftwareScheduler
			r = psm.Simulate(tr, cfg)
		}
		b.ReportMetric(r.WMChangesPerSec, "wme-changes/s")
	})
}

// BenchmarkE8MatcherLadder measures the real Go matchers on this
// machine (the §2.2 throughput ladder): naive, TREAT, serial Rete, and
// the goroutine-parallel Rete.
func BenchmarkE8MatcherLadder(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	params := matchtest.DefaultGenParams()
	params.Productions = 40
	prods := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, 60, 4)
	var nChanges int
	for _, batch := range script.Batches {
		nChanges += len(batch)
	}
	kinds := []core.MatcherKind{core.Naive, core.TREAT, core.SerialRete, core.ParallelRete}
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystemFromProgram(&ops5.Program{Productions: prods},
					core.Options{Matcher: kind, Workers: runtime.GOMAXPROCS(0)})
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range script.Batches {
					sys.Matcher.Apply(cloneBatch(batch))
				}
			}
			b.ReportMetric(float64(nChanges*b.N)/b.Elapsed().Seconds(), "wme-changes/s")
		})
	}
}

// BenchmarkE9AffectedProductions reproduces the §4 measurement that
// drives everything else: productions affected per WM change.
func BenchmarkE9AffectedProductions(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		wmes, err := workload.EightPuzzleWM([9]int{1, 2, 3, 4, 0, 5, 6, 7, 8}, 30)
		if err != nil {
			b.Fatal(err)
		}
		rec, _, err := workload.Capture("ep", workload.EightPuzzle, wmes,
			workload.RunConfig{MaxCycles: 200})
		if err != nil {
			b.Fatal(err)
		}
		avg = rec.Net.Stats.AvgAffected()
	}
	b.ReportMetric(avg, "affected-prods/change")
}

// BenchmarkE10Sensitivity reproduces §8: concurrency sensitivity to WM
// changes per firing (the dominant factor).
func BenchmarkE10Sensitivity(b *testing.B) {
	base, _ := workload.SystemByName("r1-soar")
	for _, c := range []float64{1, 2, 4, 8} {
		p := base
		p.ChangesPerFiring = c
		p.Cycles = 60
		tr := workload.Generate(p)
		b.Run(fmt.Sprintf("changes-per-firing-%.0f", c), func(b *testing.B) {
			var r psm.Result
			for i := 0; i < b.N; i++ {
				r = psm.Simulate(tr, psm.DefaultConfig(32))
			}
			b.ReportMetric(r.Concurrency, "concurrency@32")
		})
	}
}

// BenchmarkSerialReteApply is a plain micro-benchmark of the serial
// matcher's per-change cost (engineering baseline, not a paper figure).
func BenchmarkSerialReteApply(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	params := matchtest.DefaultGenParams()
	params.Productions = 40
	prods := matchtest.RandomProgram(rng, params)
	sys, err := core.NewSystemFromProgram(&ops5.Program{Productions: prods}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	wmes := make([]*ops5.WME, 512)
	for i := range wmes {
		wmes[i] = matchtest.RandomWME(rng, params)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wmes[i%len(wmes)].Clone()
		w.TimeTag = i*2 + 1
		sys.Matcher.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
		sys.Matcher.Apply([]ops5.Change{{Kind: ops5.Delete, WME: w}})
	}
}

// BenchmarkDispatch measures §2.2's interpreted-vs-compiled node
// dispatch step: the same Rete network with switch-interpreted tests
// and with closure-compiled tests.
func BenchmarkDispatch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	params := matchtest.DefaultGenParams()
	params.Productions = 80
	prods := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, 80, 6)

	run := func(b *testing.B, compiled bool) {
		for i := 0; i < b.N; i++ {
			net, err := rete.Compile(prods)
			if err != nil {
				b.Fatal(err)
			}
			if compiled {
				net.EnableCompiledDispatch()
			}
			for _, batch := range script.Batches {
				net.Apply(cloneBatch(batch))
			}
		}
	}
	b.Run("interpreted", func(b *testing.B) { run(b, false) })
	b.Run("compiled", func(b *testing.B) { run(b, true) })
}

// BenchmarkE11Hierarchy reports the flat-vs-hierarchical throughput at
// 256 processors (the §5 hierarchical-multiprocessor extension).
func BenchmarkE11Hierarchy(b *testing.B) {
	p, _ := workload.SystemByName("r1-soar")
	p.FiringsPerCycle = 8
	p.Cycles = 40
	tr := workload.Generate(p)
	b.Run("flat-256", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			r = psm.Simulate(tr, psm.DefaultConfig(256))
		}
		b.ReportMetric(r.WMChangesPerSec, "wme-changes/s")
	})
	b.Run("clusters-8x32", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			r = psm.SimulateHierarchical(tr, psm.DefaultHierConfig(8, 32))
		}
		b.ReportMetric(r.WMChangesPerSec, "wme-changes/s")
	})
}

// BenchmarkE15Partitioning reports oracle-static vs dynamic speed-up
// (§5's shared-memory argument).
func BenchmarkE15Partitioning(b *testing.B) {
	tr := systemTraces["r1-soar"]
	costs := partition.NodeCosts(tr)
	assign := partition.Refine(partition.LPT(costs, 32), costs, 32, 200)
	b.Run("static-oracle", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			cfg := psm.DefaultConfig(32)
			cfg.NodeAssignment = assign
			r = psm.Simulate(tr, cfg)
		}
		b.ReportMetric(r.TrueSpeedup, "speedup")
	})
	b.Run("dynamic", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			r = psm.Simulate(tr, psm.DefaultConfig(32))
		}
		b.ReportMetric(r.TrueSpeedup, "speedup")
	})
}

// BenchmarkE16NodeExclusive ablates §4's same-node-parallelism
// relaxation.
func BenchmarkE16NodeExclusive(b *testing.B) {
	tr := systemTraces["daa"]
	b.Run("multiple-tokens-per-node", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			r = psm.Simulate(tr, psm.DefaultConfig(32))
		}
		b.ReportMetric(r.Concurrency, "concurrency")
	})
	b.Run("one-token-per-node", func(b *testing.B) {
		var r psm.Result
		for i := 0; i < b.N; i++ {
			cfg := psm.DefaultConfig(32)
			cfg.NodeExclusive = true
			r = psm.Simulate(tr, cfg)
		}
		b.ReportMetric(r.Concurrency, "concurrency")
	})
}

// dispatchScript builds the bulk_prete shape (benchmark/README.md): the
// frozen 300-production dispatch program — 10 stations x 30 rules that
// all start from their station's job element, so one job change fans
// out to 30 sibling joins below one beta memory — and request-sized
// batches: 64 arrivals (192 elements) asserted, the 192 from eight
// batches earlier retracted.
func dispatchScript(b *testing.B, batches int) ([]*ops5.Production, [][]ops5.Change) {
	src, err := os.ReadFile("benchmark/rules/dispatch.ops")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ops5.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	pick := func(prefix string, n int) string { return prefix + strconv.Itoa(rng.Intn(n)) }
	tag := 0
	script := make([][]ops5.Change, batches)
	for r := range script {
		assert := func(w *ops5.WME) {
			tag++
			w.TimeTag = tag
			script[r] = append(script[r], ops5.Change{Kind: ops5.Insert, WME: w})
		}
		for a := 0; a < 64; a++ {
			job, station := r*64+a, pick("s", 10)
			assert(ops5.NewWME("job", "id", job, "station", station, "kind", pick("k", 5), "prio", 1+rng.Intn(9)))
			assert(ops5.NewWME("part", "job", job, "station", station, "type", pick("t", 6), "qty", 1+rng.Intn(20)))
			assert(ops5.NewWME("slot", "job", job, "station", station, "lane", pick("l", 4), "cap", 1+rng.Intn(20)))
		}
		if r >= 8 {
			for _, ch := range script[r-8][:192] {
				script[r] = append(script[r], ops5.Change{Kind: ops5.Delete, WME: ch.WME})
			}
		}
	}
	return prog.Productions, script
}

// BenchmarkPreteApply measures the parallel matcher against the serial
// one across worker counts, on two script shapes: "random" (40
// index-stress productions, batches of 1-6 changes — every batch under
// the serial bypass) and "fanout" (dispatchScript: 384-change batches
// whose job changes each reach 30 sibling joins). Each iteration
// replays the script through a fresh rete.Network, untimed, and then
// through a fresh prete.Matcher, so ns/op, B/op and allocs/op (run with
// -benchmem; the allocation columns are tracked) cover the whole
// parallel activation path: scheduler submit/steal, join probes,
// token-memory churn and conflict-set flush. true-speedup is the
// paper's §6 definition — serial Rete's wall time over the parallel
// matcher's, the two replays interleaved so machine drift cancels;
// est-speedup is the matcher's own self-relative estimate
// (LossReport.TrueSpeedup).
func BenchmarkPreteApply(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	params := matchtest.IndexStressGenParams()
	params.Productions = 40
	randomProds := matchtest.RandomProgram(rng, params)
	fanoutProds, fanoutScript := dispatchScript(b, 24)
	shapes := []struct {
		name   string
		prods  []*ops5.Production
		script [][]ops5.Change
	}{
		{"random", randomProds, matchtest.RandomScript(rng, params, 60, 6).Batches},
		{"fanout", fanoutProds, fanoutScript},
	}
	counts := []int{1, 4, 16}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 && g != 16 {
		counts = append(counts, g)
	}
	nop := func(*ops5.Instantiation) {}
	replay := func(apply func([]ops5.Change), script [][]ops5.Change) time.Duration {
		t0 := time.Now()
		for _, batch := range script {
			apply(batch)
		}
		return time.Since(t0)
	}
	for _, sh := range shapes {
		var nChanges int
		for _, batch := range sh.script {
			nChanges += len(batch)
		}
		for _, workers := range counts {
			b.Run(fmt.Sprintf("%s/workers-%d", sh.name, workers), func(b *testing.B) {
				var serial, parallel time.Duration
				var last *prete.Matcher
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if last != nil {
						last.Close()
					}
					net, err := rete.Compile(sh.prods)
					if err != nil {
						b.Fatal(err)
					}
					net.OnInsert, net.OnRemove = nop, nop
					serial += replay(net.Apply, sh.script)
					b.StartTimer()
					m, err := prete.New(sh.prods, workers)
					if err != nil {
						b.Fatal(err)
					}
					m.OnInsert, m.OnRemove = nop, nop
					parallel += replay(m.Apply, sh.script)
					last = m
				}
				defer last.Close()
				b.ReportMetric(float64(nChanges*b.N)/parallel.Seconds(), "wme-changes/s")
				b.ReportMetric(serial.Seconds()/parallel.Seconds(), "true-speedup")
				// Loss-factor accounting from the final iteration's matcher
				// (one full script): the paper-§6 numbers plus the budget
				// share of each loss component. benchcmp records these as
				// informational metrics in BENCH_prete.json, so the scaling
				// behaviour is diffable PR-over-PR without being gated.
				l := last.Loss()
				b.ReportMetric(l.LossFactor, "loss-factor")
				b.ReportMetric(l.TrueSpeedup, "est-speedup")
				b.ReportMetric(l.NominalConcurrency, "nominal-conc")
				for _, c := range l.Decomposition {
					switch c.Name {
					case "useful_match":
						b.ReportMetric(c.Share, "match-frac")
					case "memory_contention":
						b.ReportMetric(c.Share, "lockwait-frac")
					case "scheduling":
						b.ReportMetric(c.Share, "sched-frac")
					case "idle":
						b.ReportMetric(c.Share, "idle-frac")
					case "spawn":
						b.ReportMetric(c.Share, "spawn-frac")
					}
				}
			})
		}
	}
}

// BenchmarkMissManners runs the canonical join-heavy OPS5 benchmark
// through the real serial matcher.
func BenchmarkMissManners(b *testing.B) {
	p := workload.DefaultMannersParams()
	for i := 0; i < b.N; i++ {
		wmes, err := workload.MannersWM(p)
		if err != nil {
			b.Fatal(err)
		}
		_, eng, err := workload.Capture("manners", workload.MissManners, wmes,
			workload.RunConfig{MaxCycles: 5000})
		if err != nil {
			b.Fatal(err)
		}
		if !eng.Halted {
			b.Fatal("manners did not finish")
		}
	}
}
