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
	"runtime/debug"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/archcmp"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/matchtest"
	"repro/internal/model"
	"repro/internal/obs"
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
	for _, name := range experiments.Ladder {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := experiments.LadderEngine(name, prods)
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range script.Batches {
					e.Matcher.Apply(cloneBatch(batch))
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
		avg = rec.Counts.PerChange(rec.Counts.Affected)
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
func dispatchScript(tb testing.TB, batches int) ([]*ops5.Production, [][]ops5.Change) {
	src, err := os.ReadFile("benchmark/rules/dispatch.ops")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := ops5.Parse(string(src))
	if err != nil {
		tb.Fatal(err)
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

// preteShape is one change script BenchmarkPreteApply and
// TestPreteSpeedupFloor replay through both Rete executors.
type preteShape struct {
	name     string
	prods    []*ops5.Production
	script   [][]ops5.Change
	nChanges int
}

// preteShapes builds the two scripts: "random" (40 index-stress
// productions, batches of 1-6 changes — every batch under the serial
// bypass) and "fanout" (dispatchScript: 384-change batches whose job
// changes each reach 30 sibling joins).
func preteShapes(tb testing.TB) []preteShape {
	rng := rand.New(rand.NewSource(17))
	params := matchtest.IndexStressGenParams()
	params.Productions = 40
	randomProds := matchtest.RandomProgram(rng, params)
	fanoutProds, fanoutScript := dispatchScript(tb, 24)
	shapes := []preteShape{
		{name: "random", prods: randomProds, script: matchtest.RandomScript(rng, params, 60, 6).Batches},
		{name: "fanout", prods: fanoutProds, script: fanoutScript},
	}
	for i := range shapes {
		for _, batch := range shapes[i].script {
			shapes[i].nChanges += len(batch)
		}
	}
	return shapes
}

// replaySerial replays a shape through a fresh rete.Network and
// returns the wall time of the replay alone, not the compile.
func replaySerial(tb testing.TB, sh preteShape) time.Duration {
	net, err := rete.Compile(sh.prods)
	if err != nil {
		tb.Fatal(err)
	}
	net.Sink = discard{}
	return replay(net.Apply, sh.script)
}

// replayParallel replays a shape through a fresh prete.Matcher with the
// given lane count and returns the replay's wall time and the matcher.
func replayParallel(tb testing.TB, sh preteShape, workers int) (time.Duration, *prete.Matcher) {
	m, err := prete.New(sh.prods, workers)
	if err != nil {
		tb.Fatal(err)
	}
	m.Sink = discard{}
	return replay(m.Apply, sh.script), m
}

// discard is a conflict-set sink that drops every delta, so a replay
// times the matcher alone.
type discard struct{}

func (discard) InsertMatch(*ops5.Production, []*ops5.WME) {}
func (discard) RemoveMatch(*ops5.Production, []*ops5.WME) {}

func replay(apply func([]ops5.Change), script [][]ops5.Change) time.Duration {
	t0 := time.Now()
	for _, batch := range script {
		apply(batch)
	}
	return time.Since(t0)
}

// BenchmarkPreteApply measures the parallel matcher against the serial
// one across worker counts on the two preteShapes. Each iteration
// replays the script through a fresh rete.Network, untimed, and then
// through a fresh prete.Matcher, so ns/op, B/op and allocs/op (run with
// -benchmem) cover the whole parallel activation path: seed claims,
// join probes, token-memory churn and conflict-set flush.
// true-speedup is the paper's §6 definition — serial Rete's wall time
// over the parallel matcher's, the two replays interleaved so machine
// drift cancels; est-speedup is the matcher's own self-relative
// estimate (LossReport.TrueSpeedup). TestPreteSpeedupFloor gates the
// same ratio.
func BenchmarkPreteApply(b *testing.B) {
	counts := []int{1, 4, 16}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 && g != 16 {
		counts = append(counts, g)
	}
	for _, sh := range preteShapes(b) {
		for _, workers := range counts {
			b.Run(fmt.Sprintf("%s/workers-%d", sh.name, workers), func(b *testing.B) {
				var serial, parallel time.Duration
				var last *prete.Matcher
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					serial += replaySerial(b, sh)
					b.StartTimer()
					p, m := replayParallel(b, sh, workers)
					parallel, last = parallel+p, m
				}
				b.ReportMetric(float64(sh.nChanges*b.N)/parallel.Seconds(), "wme-changes/s")
				b.ReportMetric(serial.Seconds()/parallel.Seconds(), "true-speedup")
				// Loss-factor accounting from the final iteration's matcher
				// (one full script): the paper-§6 numbers plus the budget
				// share of each loss component.
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

// TestPreteSpeedupFloor is the paper's §6 claim as an absolute gate:
// on two or more CPUs the parallel matcher must not lose to serial Rete
// on either preteShape, with one lane or with GOMAXPROCS lanes. Each
// row replays five interleaved (serial, parallel) pairs and gates the
// median true speed-up at 1.0; the log carries each row's loss
// decomposition. On one CPU extra lanes can only add overhead, so the
// test skips there, and under -short.
func TestPreteSpeedupFloor(t *testing.T) {
	const pairs, floor = 5, 1.0
	procs := runtime.GOMAXPROCS(0)
	if testing.Short() || procs < 2 {
		t.Skipf("needs two or more CPUs and no -short (GOMAXPROCS=%d)", procs)
	}
	for _, sh := range preteShapes(t) {
		for _, workers := range []int{1, procs} {
			speedups := make([]float64, pairs)
			var l obs.LossReport // the final pair's
			for i := range speedups {
				serial := replaySerial(t, sh)
				parallel, m := replayParallel(t, sh, workers)
				speedups[i] = serial.Seconds() / parallel.Seconds()
				l = m.Loss()
			}
			sort.Float64s(speedups)
			median := speedups[pairs/2]
			t.Logf("%s/workers-%d: true-speedup median %.2f (pairs %.2f); est-speedup %.2f, nominal-conc %.2f, loss-factor %.2f",
				sh.name, workers, median, speedups, l.TrueSpeedup, l.NominalConcurrency, l.LossFactor)
			for _, c := range l.Decomposition {
				t.Logf("    %-18s %6.3f", c.Name, c.Share)
			}
			if median < floor {
				t.Errorf("%s/workers-%d: median true-speedup %.2f below the floor %.1f", sh.name, workers, median, floor)
			}
		}
	}
}

// mannersSolve runs the canonical join-heavy OPS5 benchmark, Miss
// Manners, to its halt through the real serial matcher.
func mannersSolve(tb testing.TB) {
	wmes, err := workload.MannersWM(workload.DefaultMannersParams())
	if err != nil {
		tb.Fatal(err)
	}
	_, eng, err := workload.Capture("manners", workload.MissManners, wmes,
		workload.RunConfig{MaxCycles: 5000})
	if err != nil {
		tb.Fatal(err)
	}
	if !eng.Halted {
		tb.Fatal("manners did not finish")
	}
}

// BenchmarkMissManners times one Manners solve.
func BenchmarkMissManners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mannersSolve(b)
	}
}

// mannersAllocsCeiling is the allocation count of one Manners solve.
// Go's allocation counts are deterministic, so any rise is a code
// change, not noise. It was 2,594 while rete.Plan also held every test
// as a closure; deleting the closures took it to 2,567, building join
// outputs into the tokens deletes freed took it to 2,042, a conflict
// set that holds matches and builds an instantiation only for the one
// that fires took it to 1,839, and an act phase that reads variables
// through compiled slots and builds changes and fields in the engine's
// reused buffers took it to 1,498. A change that lowers the count
// lowers this number in the same diff.
const mannersAllocsCeiling = 1498

// mannersSerialAllocsCeiling is the allocation count of one Manners
// solve through core.NewSystem on serial Rete, parse and compile
// included: the path psmd runs. It was set at 1,479 when the network
// stopped counting affected productions per change; lower it in the
// change that lowers the count.
const mannersSerialAllocsCeiling = 1479

// mannersPreteAllocsCeiling is the allocation count of one Manners solve
// through core.NewSystem on a one-lane parallel matcher, parse and
// compile included. It was set at 2,312 when the parallel matcher began
// to recycle tokens and hand back the instantiation an insert announced,
// lowered to 2,296 when a lane's per-depth output buffers became one
// stack, to 2,093 when the matchers began to hand the conflict set
// matches instead of instantiations, and to 1,752 when the act phase
// stopped building a binding map, field slices and change lists per
// firing; lower it in the change that lowers the count.
const mannersPreteAllocsCeiling = 1752

// mannersSymbols interns every symbol of a Manners solve when the test
// binary starts. A join key hashes a symbol's interned ID, so the IDs
// decide which stripe of the parallel matcher's memories a key lands in
// and so how often a stripe's table grows. Interned by whichever test
// happened to run first, they moved the one-lane count by 6 between
// `go test -run TestMannersAllocs .` and a full `go test .`. They are
// interned in a solve's own order, working memory before program.
var mannersSymbols = func() error {
	if _, err := workload.MannersWM(workload.DefaultMannersParams()); err != nil {
		return err
	}
	_, err := ops5.Parse(workload.MissManners)
	return err
}()

// mannersSystemSolve runs one Manners solve through core.NewSystem on
// the given matcher (one lane, for the parallel one), as psmd builds a
// session: parse and compile included.
func mannersSystemSolve(tb testing.TB, kind core.MatcherKind) *core.System {
	wmes, err := workload.MannersWM(workload.DefaultMannersParams())
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.NewSystem(workload.MissManners, core.Options{Matcher: kind, Workers: 1, MaxCycles: 5000})
	if err != nil {
		tb.Fatal(err)
	}
	sys.Assert(wmes...)
	if _, err := sys.Run(); err != nil {
		tb.Fatal(err)
	}
	if !sys.Halted {
		tb.Fatal("manners did not finish")
	}
	return sys
}

// TestInstantiationsBuiltPerFiring counts, with every allocation
// profiled, the ops5.NewInstantiation calls of one Manners solve through
// core.NewSystem. The conflict set builds an instantiation only for the
// entry Select picks, so the count is the number of firings, not the
// number of conflict-set inserts.
func TestInstantiationsBuiltPerFiring(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := profiledAllocs("repro/internal/ops5.NewInstantiation")
	sys := mannersSystemSolve(t, core.SerialRete)
	built := profiledAllocs("repro/internal/ops5.NewInstantiation") - before
	inserts := sys.Capabilities().Stats.MatchStats().ConflictInserts
	t.Logf("%d instantiations built for %d firings and %d conflict-set inserts", built, sys.Fired, inserts)
	if built != int64(sys.Fired) {
		t.Errorf("%d instantiations built for %d firings (%d conflict-set inserts)", built, sys.Fired, inserts)
	}
}

// profiledAllocs returns how many objects the memory profile has
// recorded allocated under the named function (inlined calls
// included). The profile publishes an allocation a GC cycle or two
// after it happens, so it collects twice first.
func profiledAllocs(function string) int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == function {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestMannersAllocs gates the allocations per Manners solve of the
// traced serial matcher at mannersAllocsCeiling, of serial Rete through
// core.NewSystem at mannersSerialAllocsCeiling and of a one-lane
// parallel matcher at mannersPreteAllocsCeiling, and logs the ratio of
// the last two.
func TestMannersAllocs(t *testing.T) {
	if mannersSymbols != nil {
		t.Fatal(mannersSymbols)
	}
	// Collections during the solves moved the counts (GOGC=5 read 1,500
	// traced allocations against 1,498), so they are taken with the
	// collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(5, func() { mannersSolve(t) })
	t.Logf("%.0f allocs per traced Manners solve (ceiling %d)", got, mannersAllocsCeiling)
	if got > mannersAllocsCeiling {
		t.Errorf("%.0f allocs per Manners solve, above the ceiling of %d", got, mannersAllocsCeiling)
	}
	serial := testing.AllocsPerRun(5, func() { mannersSystemSolve(t, core.SerialRete) })
	lane := testing.AllocsPerRun(5, func() { mannersSystemSolve(t, core.ParallelRete) })
	t.Logf("core.NewSystem: serial Rete %.0f (ceiling %d), one-lane prete %.0f (ceiling %d) allocs per Manners solve, ratio %.3f",
		serial, mannersSerialAllocsCeiling, lane, mannersPreteAllocsCeiling, lane/serial)
	if serial > mannersSerialAllocsCeiling {
		t.Errorf("%.0f allocs per Manners solve on serial Rete through core.NewSystem, above the ceiling of %d", serial, mannersSerialAllocsCeiling)
	}
	if lane > mannersPreteAllocsCeiling {
		t.Errorf("%.0f allocs per Manners solve on one-lane prete, above the ceiling of %d", lane, mannersPreteAllocsCeiling)
	}
}

// preteAllocsCeiling is the allocation count per WM change of a one-lane
// parallel matcher replaying dispatchScript into a fresh matcher and
// conflict set (one lane, so the count is exact). It was 27.92 while a
// delete built the token it retracts; naming the stored token instead
// took it to 19.15, building join outputs into recycled tokens and
// handing removals the instantiation their insert announced took it to
// 9.281, and handing the conflict set matches, so that nothing builds
// an instantiation, took it to 7.066. A change that lowers the count
// lowers this number in the same diff.
const preteAllocsCeiling = 7.07

// TestPreteAllocs gates the parallel matcher's allocations per change on
// the bulk_prete shape at preteAllocsCeiling and logs the serial
// matcher's count, and on more than one CPU the GOMAXPROCS-lane one,
// beside it.
func TestPreteAllocs(t *testing.T) {
	prods, script := dispatchScript(t, 24)
	changes := 0
	for _, batch := range script {
		changes += len(batch)
	}
	perChange := func(apply func([]ops5.Change)) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		replay(apply, script)
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs-before) / float64(changes)
	}
	preteAllocs := func(workers int) float64 {
		m, err := prete.New(prods, workers)
		if err != nil {
			t.Fatal(err)
		}
		m.Sink = conflict.NewSet(conflict.LEX)
		return perChange(m.Apply)
	}
	net, err := rete.Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	net.Sink = conflict.NewSet(conflict.LEX)
	t.Logf("serial rete: %.2f allocs per change", perChange(net.Apply))
	if lanes := runtime.GOMAXPROCS(0); lanes > 1 {
		t.Logf("prete, %d lanes: %.2f allocs per change", lanes, preteAllocs(lanes))
	}
	got := preteAllocs(1)
	t.Logf("prete, one lane: %.3f allocs per change (ceiling %.2f)", got, preteAllocsCeiling)
	if got > preteAllocsCeiling {
		t.Errorf("%.3f allocs per change on one lane, above the ceiling of %.2f", got, preteAllocsCeiling)
	}
}
