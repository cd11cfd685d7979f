// Package experiments implements every evaluation experiment of the
// paper (E1-E13, including Figures 6-1 and 6-2) as reusable functions.
// cmd/experiments is a thin command-line wrapper; the test suite runs
// each experiment against an in-memory buffer and asserts on the
// headline numbers.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/archcmp"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fullstate"
	"repro/internal/matchtest"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ops5"
	"repro/internal/partition"
	"repro/internal/psm"
	"repro/internal/rete"
	"repro/internal/soar"
	"repro/internal/trace"
	"repro/internal/treat"
	"repro/internal/workload"
)

var sweepProcs = []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64, 72}

// Experiment is one runnable experiment.
type Experiment struct {
	// ID is the short identifier used by the -exp flag.
	ID string
	// Name is the human-readable title with the paper reference.
	Name string
	// Run writes the experiment's tables and figures to w; cycles sets
	// the synthetic workload length.
	Run func(w io.Writer, cycles int) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"e1", "E1 (§3.1): state-saving vs non-state-saving match", e1},
		{"e2", "E2 (§4): production-level vs node-level parallelism", e2},
		{"fig6-1", "Figure 6-1 (§6): concurrency vs number of processors", fig61},
		{"fig6-2", "Figure 6-2 (§6): execution speed vs number of processors", fig62},
		{"e5", "E5 (§6): true speed-up and lost factor at 32 processors", e5},
		{"e6", "E6 (§7): comparison to other architectures", e6},
		{"e7", "E7 (§5): hardware vs software task scheduler", e7},
		{"e8", "E8 (§2.2): real matcher throughput ladder (this machine)", e8},
		{"e9", "E9 (§4): affected productions per WM change", e9},
		{"e10", "E10 (§8): sensitivity of concurrency to workload factors", e10},
		{"e11", "E11 (§5): hierarchical multiprocessor beyond 64 processors", e11},
		{"e12", "E12 (§5): bus saturation and cache-hit sensitivity", e12},
		{"e13", "E13 (§3.2): the state-storing spectrum (TREAT / Rete / full state)", e13},
		{"e14", "E14 (§8): parallel firings on a real Soar run (water jug)", e14},
		{"e15", "E15 (§5): static node partitioning vs dynamic shared-memory scheduling", e15},
		{"e16", "E16 (§4): ablating the two fine-grain relaxations", e16},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// systems generates each synthetic workload with the requested length.
func systems(cycles int) []*trace.Trace {
	var out []*trace.Trace
	for _, p := range workload.Systems() {
		p.Cycles = cycles
		out = append(out, workload.Generate(p))
	}
	return out
}

// e1 reproduces the §3.1 analytic comparison and validates it against
// the real matchers' operation counts.
func e1(w io.Writer, _ int) error {
	m := model.PaperCosts()
	fmt.Fprintf(w, "Cost model: c1 = %.0f, c2 = %.0f, c3 = %.0f instructions\n", m.C1, m.C2, m.C3)
	fmt.Fprintf(w, "Break-even turnover (i+d)/s = c3/c1 = %.2f (paper: 0.61)\n\n", m.BreakEvenRatio())

	var rows [][]string
	for _, r := range []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.3, 0.61, 0.8, 1.0} {
		s := 1000.0
		id := r * s
		state := m.StateSavingCost(id/2, id/2)
		non := m.NonStateSavingCost(s)
		verdict := "state-saving wins"
		if state > non {
			verdict = "non-state-saving wins"
		} else if state == non {
			verdict = "break even"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", r),
			fmt.Sprintf("%.0f", state),
			fmt.Sprintf("%.0f", non),
			fmt.Sprintf("%.1fx", m.Advantage(r)),
			verdict,
		})
	}
	fmt.Fprint(w, metrics.Table(
		[]string{"(i+d)/s", "state-saving instr/cycle", "non-state-saving instr/cycle", "advantage", "verdict"},
		rows))
	fmt.Fprintf(w, "\nAt the measured OPS5 turnover of 0.5%% per cycle the advantage is %.0fx;\n", m.Advantage(0.005))
	fmt.Fprintln(w, "a non-state-saving algorithm must recover that factor to break even (§3.1).")

	// Empirical check: rete work vs naive work on a real program.
	wmes, err := workload.EightPuzzleWM([9]int{1, 2, 3, 4, 0, 5, 6, 7, 8}, 25)
	if err != nil {
		return err
	}
	rec, _, err := workload.Capture("ep", workload.EightPuzzle, wmes, workload.RunConfig{MaxCycles: 200})
	if err != nil {
		return err
	}
	perChange := rec.Trace.CostPerChange()
	fmt.Fprintf(w, "\nEmpirical (eight-puzzle, this repo's Rete): %.0f instructions per WM change (model c1 = %.0f)\n",
		perChange, m.C1)
	return nil
}

// e2 compares production-level and node-level parallelism on the same
// traces with effectively unbounded processors (§4).
func e2(w io.Writer, cycles int) error {
	var rows [][]string
	var sumProd, sumNode float64
	for _, tr := range systems(cycles) {
		base := psm.DefaultConfig(1024)
		node := psm.Simulate(tr, base)
		pl := base
		pl.ProductionLevel = true
		prod := psm.Simulate(tr, pl)
		sumProd += prod.TrueSpeedup
		sumNode += node.TrueSpeedup
		rows = append(rows, []string{
			tr.Name,
			metrics.F(prod.TrueSpeedup, 2),
			metrics.F(node.TrueSpeedup, 2),
			metrics.F(node.TrueSpeedup/prod.TrueSpeedup, 2),
		})
	}
	n := float64(len(rows))
	rows = append(rows, []string{"AVERAGE", metrics.F(sumProd/n, 2), metrics.F(sumNode/n, 2),
		metrics.F(sumNode/sumProd, 2)})
	fmt.Fprint(w, metrics.Table(
		[]string{"workload", "production-level speed-up", "node-level speed-up", "gain"},
		rows))
	fmt.Fprintln(w, "\nPaper: production parallelism yields only ~5-fold even with unbounded")
	fmt.Fprintln(w, "processors, because of the variance in per-production processing (§4).")
	return nil
}

// sweepSeries simulates every workload across the processor sweep and
// extracts a metric.
func sweepSeries(cycles int, metric func(psm.Result) float64) []metrics.Series {
	var out []metrics.Series
	for _, tr := range systems(cycles) {
		res := psm.Sweep(tr, psm.DefaultConfig(0), sweepProcs)
		s := metrics.Series{Name: tr.Name, X: sweepProcs}
		for _, r := range res {
			s.Y = append(s.Y, metric(r))
		}
		out = append(out, s)
	}
	return out
}

func fig61(w io.Writer, cycles int) error {
	series := sweepSeries(cycles, func(r psm.Result) float64 { return r.Concurrency })
	fmt.Fprint(w, metrics.SeriesTable("processors", series, "%.2f"))
	fmt.Fprintln(w)
	fmt.Fprint(w, metrics.Chart("Figure 6-1: Concurrency", "processors", "avg busy processors", series, 72, 20))
	fmt.Fprintln(w, "\nPaper: for most systems 32 processors are more than sufficient; the")
	fmt.Fprintln(w, "average concurrency on 32 processors is 15.92 (§6).")
	return nil
}

func fig62(w io.Writer, cycles int) error {
	series := sweepSeries(cycles, func(r psm.Result) float64 { return r.WMChangesPerSec })
	fmt.Fprint(w, metrics.SeriesTable("processors", series, "%.0f"))
	fmt.Fprintln(w)
	fmt.Fprint(w, metrics.Chart("Figure 6-2: Execution speed", "processors", "wme-changes/sec", series, 72, 20))
	fmt.Fprintln(w, "\nPaper: average execution speed on 32 processors is 9400 wme-changes/sec,")
	fmt.Fprintln(w, "or about 3800 production firings per second (§6).")
	return nil
}

func e5(w io.Writer, cycles int) error {
	var rows [][]string
	var sumC, sumT, sumL, sumS, sumF float64
	trs := systems(cycles)
	for _, tr := range trs {
		r := psm.Simulate(tr, psm.DefaultConfig(32))
		sumC += r.Concurrency
		sumT += r.TrueSpeedup
		sumL += r.LostFactor
		sumS += r.WMChangesPerSec
		sumF += r.FiringsPerSec
		rows = append(rows, []string{tr.Name, metrics.F(r.Concurrency, 2), metrics.F(r.TrueSpeedup, 2),
			metrics.F(r.LostFactor, 2), metrics.F(r.WMChangesPerSec, 0), metrics.F(r.FiringsPerSec, 0)})
	}
	n := float64(len(trs))
	rows = append(rows, []string{"AVERAGE", metrics.F(sumC/n, 2), metrics.F(sumT/n, 2),
		metrics.F(sumL/n, 2), metrics.F(sumS/n, 0), metrics.F(sumF/n, 0)})
	rows = append(rows, []string{"PAPER", "15.92", "8.25", "1.93", "9400", "3800"})
	fmt.Fprint(w, metrics.Table(
		[]string{"workload (32 procs)", "concurrency", "true speed-up", "lost factor", "wme-changes/s", "firings/s"},
		rows))
	// Decompose the average lost factor into the paper's three causes:
	// sharing loss, scheduling/synchronisation overhead, and waits.
	var sharing, overhead, waits, busy float64
	for _, tr := range trs {
		r := psm.Simulate(tr, psm.DefaultConfig(32))
		sharing += r.SharingLossSec
		overhead += r.OverheadSec
		waits += r.BusWaitSec + r.SchedWaitSec
		busy += r.BusyTime
	}
	fmt.Fprintf(w, "\nLost-factor decomposition (share of processor occupancy, §6's three causes):\n")
	fmt.Fprintf(w, "  loss of node sharing:            %4.1f%%\n", 100*sharing/busy)
	fmt.Fprintf(w, "  scheduling + synchronisation:    %4.1f%%\n", 100*overhead/busy)
	fmt.Fprintf(w, "  bus and dispatcher waits:        %4.1f%%\n", 100*waits/busy)
	return nil
}

func e6(w io.Writer, cycles int) error {
	// Simulate the PSM at the paper's configuration for the comparison.
	var sum float64
	trs := systems(cycles)
	for _, tr := range trs {
		sum += psm.Simulate(tr, psm.DefaultConfig(32)).WMChangesPerSec
	}
	psmSpeed := sum / float64(len(trs))
	var rows [][]string
	for _, r := range archcmp.Compare(psmSpeed, 32, 2.0) {
		reported := "n/a"
		if r.ReportedWMEPerSec > 0 {
			reported = metrics.F(r.ReportedWMEPerSec, 0)
		}
		rows = append(rows, []string{r.Machine, fmt.Sprint(r.Processors),
			metrics.F(r.MIPSPerProc, 1), r.Algorithm, reported, metrics.F(r.ModelWMEPerSec, 0)})
	}
	fmt.Fprint(w, metrics.Table(
		[]string{"machine", "processors", "MIPS/proc", "algorithm", "paper wme/s", "model wme/s"},
		rows))
	fmt.Fprintln(w, "\nPaper ranking: PSM > Oflazer > NON-VON > DADO; small numbers of powerful")
	fmt.Fprintln(w, "processors beat massive trees of weak ones because the intrinsic")
	fmt.Fprintln(w, "parallelism of OPS5 programs is small (§7).")
	return nil
}

func e7(w io.Writer, cycles int) error {
	swSpeed := func(tr *trace.Trace, queues int) float64 {
		cfg := psm.DefaultConfig(32)
		cfg.Scheduler = psm.SoftwareScheduler
		cfg.SWQueues = queues
		return psm.Simulate(tr, cfg).WMChangesPerSec
	}
	var rows [][]string
	for _, tr := range systems(cycles) {
		hw := psm.Simulate(tr, psm.DefaultConfig(32))
		sw1 := swSpeed(tr, 1)
		sw4 := swSpeed(tr, 4)
		sw16 := swSpeed(tr, 16)
		rows = append(rows, []string{tr.Name,
			metrics.F(hw.WMChangesPerSec, 0), metrics.F(sw1, 0),
			metrics.F(sw4, 0), metrics.F(sw16, 0),
			metrics.F(hw.WMChangesPerSec/sw1, 2)})
	}
	fmt.Fprint(w, metrics.Table(
		[]string{"workload (32 procs)", "hardware", "software x1", "software x4", "software x16", "hw/sw1"},
		rows))
	fmt.Fprintln(w, "\nPaper (§5): without a hardware task scheduler, serial enqueueing and")
	fmt.Fprintln(w, "dequeueing of hundreds of fine-grain activations becomes a bottleneck;")
	fmt.Fprintln(w, "\"an alternative solution is to use multiple software task schedulers\" —")
	fmt.Fprintln(w, "the x4/x16 columns quantify how far that alternative goes.")
	return nil
}

// e8 measures the real Go matchers' throughput on this machine,
// echoing the §2.2 interpreter speed ladder (Lisp 8, Bliss 40, compiled
// 200 wme-changes/sec on a VAX-11/780) with the algorithm ladder
// naive -> TREAT -> Rete -> parallel Rete.
func e8(w io.Writer, _ int) error {
	rng := rand.New(rand.NewSource(7))
	params := matchtest.DefaultGenParams()
	params.Productions = 60
	params.MaxCEs = 3
	prods := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, 120, 8)
	var nChanges int
	for _, b := range script.Batches {
		nChanges += len(b)
	}

	run := func(kind core.MatcherKind) (float64, string, error) {
		prog := &ops5.Program{Productions: prods}
		sys, err := core.NewSystemFromProgram(prog, core.Options{Matcher: kind, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return 0, "", err
		}
		start := time.Now()
		for _, batch := range script.Batches {
			cp := make([]ops5.Change, len(batch))
			for i, ch := range batch {
				cp[i] = ops5.Change{Kind: ch.Kind, WME: ch.WME.Clone()}
				cp[i].WME.TimeTag = ch.WME.TimeTag
			}
			sys.Matcher.Apply(cp)
		}
		speed := float64(nChanges) / time.Since(start).Seconds()
		// Matcher work comes through the capability interface, the same
		// way ops5run -stats reads it; no matcher internals here.
		comparisons := "-"
		if p := sys.Capabilities().Stats; p != nil {
			comparisons = fmt.Sprint(p.MatchStats().Comparisons)
		}
		return speed, comparisons, nil
	}

	var rows [][]string
	var baseline float64
	for _, kind := range []core.MatcherKind{core.Naive, core.TREAT, core.SerialRete, core.ParallelRete} {
		speed, comparisons, err := run(kind)
		if err != nil {
			return err
		}
		if baseline == 0 {
			baseline = speed
		}
		rows = append(rows, []string{kind.String(), metrics.F(speed, 0), metrics.F(speed/baseline, 1) + "x", comparisons})
	}
	fmt.Fprint(w, metrics.Table([]string{"matcher", "wme-changes/sec (real)", "vs naive", "comparisons"}, rows))
	fmt.Fprintf(w, "\n(%d productions, %d WM changes, GOMAXPROCS=%d; the paper's ladder was\n",
		len(prods), nChanges, runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "Lisp 8 -> Bliss 40 -> compiled 200 wme-changes/sec on a VAX-11/780, §2.2.")
	fmt.Fprintln(w, "TREAT beating Rete on small working memories is Miranker's own claim and")
	fmt.Fprintln(w, "matches the paper's §7 observation that DADO performs about the same")
	fmt.Fprintln(w, "under both algorithms.)")
	return nil
}

func e9(w io.Writer, _ int) error {
	var rows [][]string
	addRow := func(name string, src string, extra []*ops5.WME, cfg workload.RunConfig) error {
		rec, _, err := workload.Capture(name, src, extra, cfg)
		if err != nil {
			return err
		}
		st := rec.Net.Stats
		rows = append(rows, []string{
			name,
			fmt.Sprint(st.Changes),
			metrics.F(st.AvgAffected(), 1),
			metrics.F(float64(st.TotalActivations())/float64(maxI(st.Changes, 1)), 1),
			metrics.F(rec.Trace.CostPerChange(), 0),
		})
		return nil
	}
	wmes, err := workload.EightPuzzleWM([9]int{1, 2, 3, 4, 0, 5, 6, 7, 8}, 40)
	if err != nil {
		return err
	}
	if err := addRow("eight-puzzle", workload.EightPuzzle, wmes, workload.RunConfig{MaxCycles: 300}); err != nil {
		return err
	}
	bw := workload.BlocksWorldWM([][]string{{"a", "b", "c"}, {"d", "e"}}, [][2]string{{"a", "d"}, {"c", "e"}})
	if err := addRow("blocks-world", workload.BlocksWorld, bw, workload.RunConfig{MaxCycles: 100}); err != nil {
		return err
	}
	if err := addRow("monkey-bananas", workload.MonkeyBananas, nil, workload.RunConfig{Strategy: conflict.MEA, MaxCycles: 50}); err != nil {
		return err
	}
	mannersWM, err := workload.MannersWM(workload.DefaultMannersParams())
	if err != nil {
		return err
	}
	if err := addRow("miss-manners-8", workload.MissManners, mannersWM,
		workload.RunConfig{MaxCycles: 5000}); err != nil {
		return err
	}
	// A generated 300-production program driven through the real
	// matcher: the wide-ruleset regime the paper's measurements cover.
	pg := workload.DefaultProgGenParams()
	prog, err := ops5.Parse(workload.GenerateProgram(pg))
	if err != nil {
		return err
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		return err
	}
	rec2 := trace.NewRecorder("task-dispatch-300", net, cost.Default())
	for _, batch := range workload.GenerateDriver(pg, 80) {
		rec2.Apply(batch)
	}
	rows = append(rows, []string{
		"task-dispatch-300 (generated)",
		fmt.Sprint(net.Stats.Changes),
		metrics.F(net.Stats.AvgAffected(), 1),
		metrics.F(float64(net.Stats.TotalActivations())/float64(maxI(net.Stats.Changes, 1)), 1),
		metrics.F(rec2.Trace.CostPerChange(), 0),
	})
	// Synthetic systems: the configured affected-production means.
	for _, p := range workload.Systems() {
		tr := workload.Generate(p)
		roots := map[int64]bool{}
		chains := 0
		for _, task := range tr.Tasks {
			if task.Parent == 0 {
				roots[task.ID] = true
			} else if roots[task.Parent] {
				chains++
			}
		}
		rows = append(rows, []string{
			p.Name, fmt.Sprint(tr.Changes),
			metrics.F(float64(chains)/float64(tr.Changes), 1),
			metrics.F(float64(len(tr.Tasks))/float64(tr.Changes), 1),
			metrics.F(tr.CostPerChange(), 0),
		})
	}
	fmt.Fprint(w, metrics.Table(
		[]string{"workload", "wm changes", "affected prods/change", "activations/change", "instr/change"},
		rows))
	fmt.Fprintln(w, "\nPaper: ~30 productions are affected per change regardless of program size,")
	fmt.Fprintln(w, "which bounds production-level parallelism (§4). The small demo programs are")
	fmt.Fprintln(w, "narrower; the synthetic systems reproduce the measured distribution.")
	return nil
}

func e10(w io.Writer, cycles int) error {
	base, _ := workload.SystemByName("r1-soar")
	base.Cycles = cycles

	runWith := func(mod func(*workload.Params)) float64 {
		p := base
		mod(&p)
		return psm.Simulate(workload.Generate(p), psm.DefaultConfig(32)).Concurrency
	}

	fmt.Fprintln(w, "Factor 1: WM changes per firing (more changes -> more parallelism):")
	var rows [][]string
	for _, c := range []float64{1, 2, 4, 6, 8, 12} {
		conc := runWith(func(p *workload.Params) { p.ChangesPerFiring = c })
		rows = append(rows, []string{metrics.F(c, 0), metrics.F(conc, 2)})
	}
	fmt.Fprint(w, metrics.Table([]string{"changes/firing", "concurrency @32"}, rows))

	fmt.Fprintln(w, "\nFactor 2: affected productions per change:")
	rows = nil
	for _, a := range []float64{5, 10, 20, 30, 45, 60} {
		conc := runWith(func(p *workload.Params) { p.AffectedMean = a })
		rows = append(rows, []string{metrics.F(a, 0), metrics.F(conc, 2)})
	}
	fmt.Fprint(w, metrics.Table([]string{"affected/change", "concurrency @32"}, rows))

	fmt.Fprintln(w, "\nFactor 3: processing-cost variance (heavy-production chain depth,")
	fmt.Fprintln(w, "total match cost per change held constant):")
	rows = nil
	for _, depth := range []float64{0, 1, 2, 4, 8, 16} {
		p := base
		p.HeavyChainMean = depth
		if depth == 0 {
			p.HeavyProb = 0
		}
		tr := workload.Generate(p)
		// Normalise: rescale every task cost so the serial cost per
		// change matches the paper's c1, isolating the *shape* of the
		// cost distribution from its volume.
		scale := 1800 / tr.CostPerChange()
		for i := range tr.Tasks {
			tr.Tasks[i].Cost *= scale
		}
		r := psm.Simulate(tr, psm.DefaultConfig(32))
		rows = append(rows, []string{metrics.F(depth, 0), metrics.F(r.Concurrency, 2), metrics.F(r.TrueSpeedup, 2)})
	}
	fmt.Fprint(w, metrics.Table([]string{"heavy chain depth", "concurrency @32", "speed-up @32"}, rows))

	fmt.Fprintln(w, "\nPaper (§8): the number of changes per cycle, the number of affected")
	fmt.Fprintln(w, "productions, and the cost variance are the three factors bounding")
	fmt.Fprintln(w, "exploitable parallelism, and none is likely to change much.")
	return nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// e11 compares the flat shared-bus machine against the hierarchical
// multiprocessor the paper proposes for 100-1000 processors (§5), on a
// workload with enough application-level parallelism to use them.
func e11(w io.Writer, _ int) error {
	p, _ := workload.SystemByName("r1-soar")
	p.FiringsPerCycle = 8
	p.Cycles = 40
	p.Name = "r1-soar (8 parallel firings)"
	tr := workload.Generate(p)

	var rows [][]string
	for _, procs := range []int{32, 64, 128, 256, 512} {
		flat := psm.Simulate(tr, psm.DefaultConfig(procs))
		clusters := procs / 32
		if clusters < 1 {
			clusters = 1
		}
		hier := psm.SimulateHierarchical(tr, psm.DefaultHierConfig(clusters, 32))
		rows = append(rows, []string{
			fmt.Sprint(procs),
			metrics.F(flat.WMChangesPerSec, 0),
			metrics.F(flat.BusWaitSec/flat.Makespan, 1),
			fmt.Sprintf("%dx32", clusters),
			metrics.F(hier.WMChangesPerSec, 0),
		})
	}
	fmt.Fprint(w, metrics.Table(
		[]string{"processors", "flat wme/s", "flat bus-wait (proc-sec/sec)", "hierarchy", "hier wme/s"},
		rows))
	fmt.Fprintln(w, "\nPaper (§5): a single bus handles about 32 processors; beyond that the")
	fmt.Fprintln(w, "paper proposes hierarchical multiprocessors — clusters with local buses")
	fmt.Fprintln(w, "joined by a global bus.")
	return nil
}

// e12 reproduces the §5 bus-load claim: one high-speed bus suffices for
// ~32 processors provided reasonable cache-hit ratios.
func e12(w io.Writer, cycles int) error {
	p, _ := workload.SystemByName("r1-soar")
	p.Cycles = cycles
	tr := workload.Generate(p)

	fmt.Fprintln(w, "Cache-hit sensitivity (32 processors, 100ns bus):")
	var rows [][]string
	for _, hit := range []float64{0.99, 0.95, 0.90, 0.80, 0.60, 0.30, 0.0} {
		cfg := psm.DefaultConfig(32)
		cfg.CacheHitRatio = hit
		r := psm.Simulate(tr, cfg)
		rows = append(rows, []string{
			metrics.F(hit, 2), metrics.F(r.WMChangesPerSec, 0),
			metrics.F(r.Concurrency, 2), metrics.F(r.BusWaitSec/r.Makespan, 2),
		})
	}
	fmt.Fprint(w, metrics.Table(
		[]string{"cache hit", "wme/s", "concurrency", "bus wait (proc-sec/sec)"}, rows))

	fmt.Fprintln(w, "\nBus-speed sensitivity (32 processors, 90% cache hits):")
	rows = nil
	for _, ns := range []float64{50, 100, 200, 400, 800, 1600} {
		cfg := psm.DefaultConfig(32)
		cfg.BusCycle = ns * 1e-9
		r := psm.Simulate(tr, cfg)
		rows = append(rows, []string{
			metrics.F(ns, 0), metrics.F(r.WMChangesPerSec, 0),
			metrics.F(r.BusWaitSec/r.Makespan, 2),
		})
	}
	fmt.Fprint(w, metrics.Table([]string{"bus cycle (ns)", "wme/s", "bus wait (proc-sec/sec)"}, rows))

	fmt.Fprintln(w, "\nMemory-module interleaving (32 processors, 150ns module service):")
	rows = nil
	for _, mods := range []int{1, 2, 4, 8, 16} {
		cfg := psm.DefaultConfig(32)
		cfg.MemoryModules = mods
		r := psm.Simulate(tr, cfg)
		rows = append(rows, []string{
			fmt.Sprint(mods), metrics.F(r.WMChangesPerSec, 0),
		})
	}
	fmt.Fprint(w, metrics.Table([]string{"memory modules", "wme/s"}, rows))
	fmt.Fprintln(w, "\nPaper (§5): \"a single high-speed bus should be able to handle the load")
	fmt.Fprintln(w, "put on it by about 32 processors, provided that reasonable cache-hit")
	fmt.Fprintln(w, "ratios are obtained\".")
	return nil
}

// e13 measures the §3.2 state-storing spectrum on identical runs:
// TREAT (alpha only) vs Rete (fixed combinations) vs the full-state
// scheme (all combinations).
func e13(w io.Writer, _ int) error {
	rng := rand.New(rand.NewSource(21))
	params := matchtest.DefaultGenParams()
	params.Productions = 15
	params.MaxCEs = 3
	prods := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, 80, 4)

	type probe struct {
		name  string
		state func() int
		apply func([]ops5.Change)
	}
	var probes []probe

	tm, err := treat.New(prods)
	if err != nil {
		return err
	}
	probes = append(probes, probe{"TREAT", tm.StateSize, tm.Apply})
	net, err := rete.Compile(prods)
	if err != nil {
		return err
	}
	probes = append(probes, probe{"Rete", net.StateSize, net.Apply})
	fs, err := fullstate.New(prods)
	if err != nil {
		return err
	}
	probes = append(probes, probe{"full state (Oflazer)", fs.StateSize, fs.Apply})

	// Each probe gets its own consistent clone of the script: a delete
	// must carry the same WME pointer its insert did.
	clones := make([]map[int]*ops5.WME, len(probes))
	for i := range clones {
		clones[i] = map[int]*ops5.WME{}
	}
	peaks := make([]int, len(probes))
	for _, batch := range script.Batches {
		for pi, pr := range probes {
			cp := make([]ops5.Change, len(batch))
			for i, ch := range batch {
				w, ok := clones[pi][ch.WME.TimeTag]
				if !ok {
					w = ch.WME.Clone()
					w.TimeTag = ch.WME.TimeTag
					clones[pi][ch.WME.TimeTag] = w
				}
				cp[i] = ops5.Change{Kind: ch.Kind, WME: w}
			}
			pr.apply(cp)
			if s := pr.state(); s > peaks[pi] {
				peaks[pi] = s
			}
		}
	}
	var rows [][]string
	for pi, pr := range probes {
		rows = append(rows, []string{pr.name, fmt.Sprint(pr.state()), fmt.Sprint(peaks[pi])})
	}
	fmt.Fprint(w, metrics.Table([]string{"algorithm", "final state (entries)", "peak state"}, rows))
	fmt.Fprintf(w, "\nfull-state tuples created: %d, deleted: %d, consistency checks: %d\n",
		fs.Stats.TuplesCreated, fs.Stats.TuplesDeleted, fs.Stats.ConsistencyChecks)
	fmt.Fprintf(w, "TREAT join tuples recomputed: %d\n", tm.Stats.JoinTuplesTested)
	fmt.Fprintln(w, "\nPaper (§3.2): TREAT recomputes what it refuses to store; the full-state")
	fmt.Fprintln(w, "scheme stores (and garbage-collects) state that never reaches the")
	fmt.Fprintln(w, "conflict set; Rete's fixed combinations sit in between.")
	return nil
}

// e14 measures application-level parallel firings on a real program:
// the Soar-lite water-jug run fires whole elaboration waves as single
// match batches; serialising the same trace (one WM change per
// synchronization step) shows what that parallelism is worth — §8's
// "using parallelism in the rule-based system itself".
func e14(w io.Writer, _ int) error {
	agent, err := soar.NewAgent(soar.WaterJug, soar.Options{Trace: true})
	if err != nil {
		return err
	}
	decisions, err := agent.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "water-jug run: %d decisions, %d tie impasses, %d elaboration waves, solved=%v\n\n",
		decisions, agent.Impasses, agent.Waves, agent.Halted)

	tr := &agent.Recorder.Trace

	// Batch-size distribution (changes per synchronization step).
	sizes := map[int]int{}
	for _, task := range tr.Tasks {
		if task.Parent == 0 {
			sizes[task.Batch]++
		}
	}
	hist := map[int]int{}
	maxSize := 0
	for _, n := range sizes {
		hist[n]++
		if n > maxSize {
			maxSize = n
		}
	}
	var rows [][]string
	for n := 1; n <= maxSize; n++ {
		if hist[n] > 0 {
			rows = append(rows, []string{fmt.Sprint(n), fmt.Sprint(hist[n])})
		}
	}
	fmt.Fprint(w, metrics.Table([]string{"WM changes in batch", "batches"}, rows))

	// Serialise: every change becomes its own batch (no parallel
	// firings), keeping intra-change dependencies.
	ser := serializeChanges(tr)
	ser.Firings = tr.Changes

	par := psm.Simulate(tr, psm.DefaultConfig(32))
	seq := psm.Simulate(ser, psm.DefaultConfig(32))
	rows = [][]string{
		{"parallel firings (elaboration waves)", metrics.F(par.Concurrency, 2), metrics.F(par.TrueSpeedup, 2)},
		{"serialized (1 change per step)", metrics.F(seq.Concurrency, 2), metrics.F(seq.TrueSpeedup, 2)},
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, metrics.Table([]string{"execution mode (32 procs)", "concurrency", "true speed-up"}, rows))
	fmt.Fprintln(w, "\nPaper (§8): application-level parallelism multiplies the WM changes per")
	fmt.Fprintln(w, "synchronization step and is the one factor that can raise exploitable")
	fmt.Fprintln(w, "parallelism — when the task decomposes, as Soar elaboration phases do.")
	return nil
}

// e15 quantifies §5's shared-memory argument: a non-shared-memory
// machine must decide at load time which processor evaluates each
// node's activations (NP-complete in general, Oflazer), while shared
// memory assigns processors to activations at run time. Even with an
// ORACLE partition computed from the very trace being run, static
// assignment loses: aggregate balance is not temporal balance.
func e15(w io.Writer, cycles int) error {
	var rows [][]string
	for _, tr := range systems(cycles) {
		costs := partition.NodeCosts(tr)
		assign := partition.Refine(partition.LPT(costs, 32), costs, 32, 200)
		im := partition.Imbalance(assign, costs, 32)

		dynamic := psm.Simulate(tr, psm.DefaultConfig(32))
		cfg := psm.DefaultConfig(32)
		cfg.NodeAssignment = assign
		static := psm.Simulate(tr, cfg)
		rows = append(rows, []string{
			tr.Name,
			metrics.F(im, 2),
			metrics.F(static.TrueSpeedup, 2),
			metrics.F(dynamic.TrueSpeedup, 2),
			metrics.F(dynamic.TrueSpeedup/static.TrueSpeedup, 2),
		})
	}
	fmt.Fprint(w, metrics.Table(
		[]string{"workload (32 procs)", "oracle aggregate imbalance", "static speed-up", "dynamic speed-up", "dynamic/static"},
		rows))
	fmt.Fprintln(w, "\nPaper (§5): \"this partitioning of nodes amongst the processors is a very")
	fmt.Fprintln(w, "difficult problem ... Using a shared-memory architecture the partitioning")
	fmt.Fprintln(w, "problem is bypassed since all processors are capable of processing all")
	fmt.Fprintln(w, "node activations\". The oracle partition balances aggregate load almost")
	fmt.Fprintln(w, "perfectly, yet loses at run time: the nodes active within any one cycle")
	fmt.Fprintln(w, "concentrate on few processors.")
	return nil
}

// serializeChanges re-batches a trace so each WM change becomes its own
// synchronization step (ablating "multiple changes processed in
// parallel"). Intra-change dependencies are preserved.
func serializeChanges(tr *trace.Trace) *trace.Trace {
	ser := &trace.Trace{Name: tr.Name + " (serial changes)", Changes: tr.Changes, Firings: tr.Firings}
	batch := -1
	lastKey := int64(-1)
	for _, task := range tr.Tasks {
		key := int64(task.Batch)<<32 | int64(task.Change)
		if key != lastKey {
			batch++
			lastKey = key
		}
		t2 := task
		t2.Batch = batch
		t2.Change = 0
		ser.Tasks = append(ser.Tasks, t2)
	}
	ser.Batches = batch + 1
	return ser
}

// e16 ablates the two relaxations §4 introduces over "simple" node
// parallelism: (1) multiple activations of the same node may run in
// parallel, and (2) multiple WM changes are processed in parallel.
// Removing either collapses much of the achievable concurrency.
func e16(w io.Writer, cycles int) error {
	var rows [][]string
	var sums [4]float64
	for _, tr := range systems(cycles) {
		full := psm.Simulate(tr, psm.DefaultConfig(32))

		excl := psm.DefaultConfig(32)
		excl.NodeExclusive = true
		oneTokenPerNode := psm.Simulate(tr, excl)

		ser := serializeChanges(tr)
		oneChange := psm.Simulate(ser, psm.DefaultConfig(32))

		serExcl := psm.DefaultConfig(32)
		serExcl.NodeExclusive = true
		neither := psm.Simulate(ser, serExcl)

		rows = append(rows, []string{
			tr.Name,
			metrics.F(full.Concurrency, 2),
			metrics.F(oneTokenPerNode.Concurrency, 2),
			metrics.F(oneChange.Concurrency, 2),
			metrics.F(neither.Concurrency, 2),
		})
		sums[0] += full.Concurrency
		sums[1] += oneTokenPerNode.Concurrency
		sums[2] += oneChange.Concurrency
		sums[3] += neither.Concurrency
	}
	n := float64(len(rows))
	rows = append(rows, []string{"AVERAGE",
		metrics.F(sums[0]/n, 2), metrics.F(sums[1]/n, 2),
		metrics.F(sums[2]/n, 2), metrics.F(sums[3]/n, 2)})
	fmt.Fprint(w, metrics.Table(
		[]string{"workload (32 procs, concurrency)", "both relaxations", "one token per node", "one change at a time", "neither"},
		rows))
	fmt.Fprintln(w, "\nPaper (§4): \"in the proposed parallel implementation, both of these")
	fmt.Fprintln(w, "restrictions are relaxed\" — nodes may process several tokens at once and")
	fmt.Fprintln(w, "several WM changes are matched in parallel. The ablation shows why.")
	return nil
}
