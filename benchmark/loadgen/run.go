package loadgen

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Config sizes one end-to-end run. Every workload runs under the same
// Config; round length is shortened uniformly, never per workload.
type Config struct {
	// BenchDir is the benchmark directory (holding rules/).
	BenchDir string
	// PsmdBin is the built psmd binary.
	PsmdBin string
	// WorkDir receives psmd's logs and data directories; the run
	// removes what it puts there.
	WorkDir string
	Seed    int64
	// Nproc is the client and connection count (the machine's
	// processor count), except where a workload states otherwise.
	Nproc int
	// Rounds timed rounds of RoundSeconds each follow set-up; rates are
	// the median over the rounds.
	Rounds       int
	RoundSeconds float64
	// SetupReps is how many times set-up runs, each on a fresh psmd;
	// setup_s is the median, and the last instance runs the rounds.
	SetupReps int
}

// Metric is one measured value. Rounds holds the per-round (or
// per-repetition) values it was taken from, where there are several —
// compare uses their spread to tell "unchanged" from "unresolved".
type Metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// Result is one workload's end-to-end outcome.
type Result struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Info holds what is reported but not gated: the tail latency and
	// its percentile, the op sample count, and for the durable
	// workload how long the restarted psmd took to become ready.
	Info map[string]float64 `json:"info"`
	// Failures keeps the first few failure messages.
	Failures []string `json:"failures,omitempty"`
}

// maxFailureNotes bounds Result.Failures.
const maxFailureNotes = 5

func (r *Result) fail(err error) {
	r.Attempted++
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, err.Error())
	}
}

// instance is one psmd process with its plan, set up and ready for the
// first timed operation.
type instance struct {
	psmd    *Psmd
	plan    *Plan
	dataDir string
	setup   time.Duration
}

// setUp execs psmd and takes it to the first timed operation: ready,
// oracle pass, session creation (parse and compile), working-memory
// preload, warm-up. A failed oracle is a failed check, not a failed
// set-up; anything else that fails here ends the run.
func setUp(cfg Config, name string, rep int, res *Result) (*instance, error) {
	plan, err := NewPlan(cfg.BenchDir, name, cfg.Seed, cfg.Nproc)
	if err != nil {
		return nil, err
	}
	inst := &instance{plan: plan}
	var extra []string
	if plan.Durable {
		inst.dataDir = filepath.Join(cfg.WorkDir, fmt.Sprintf("%s-data-%d", name, rep))
		if err := os.RemoveAll(inst.dataDir); err != nil {
			return nil, err
		}
		extra = append([]string{"-data-dir", inst.dataDir}, DurableArgs...)
	}
	t0 := time.Now()
	inst.psmd, err = StartPsmd(cfg.PsmdBin, filepath.Join(cfg.WorkDir, name+"-psmd.log"), extra...)
	if err != nil {
		return nil, err
	}
	c := inst.psmd.NewCaller()
	if err := plan.Oracle(c); err != nil {
		res.fail(err)
	} else {
		res.Attempted++
	}
	if err := plan.Prepare(c); err != nil {
		err = fmt.Errorf("set-up: %w (psmd log: %s)", err, inst.psmd.LogTail())
		inst.close()
		return nil, err
	}
	inst.setup = time.Since(t0)
	return inst, nil
}

func (in *instance) close() {
	in.psmd.Kill()
	if in.dataDir != "" {
		os.RemoveAll(in.dataDir)
	}
}

// Run measures one workload end to end: SetupReps set-ups, then Rounds
// timed rounds on the last instance, then the workload's closing
// checks. It returns an error only when the run could not be made;
// operations that fail are counted in the result.
func Run(cfg Config, name string) (*Result, error) {
	res := &Result{Workload: name, Metrics: map[string]Metric{}, Info: map[string]float64{}}
	var setups []float64
	var inst *instance
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = setUp(cfg, name, rep, res); err != nil {
			return nil, err
		}
		setups = append(setups, inst.setup.Seconds())
	}
	defer inst.close()
	res.Metrics["setup_s"] = Metric{Value: Median(setups), Unit: "s", Rounds: setups}

	if err := timedRounds(cfg, inst, res); err != nil {
		return nil, err
	}
	if inst.plan.Durable {
		if err := recoverCheck(cfg, inst, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// clientRound is what one client did in one round.
type clientRound struct {
	elapsed   time.Duration
	opChanges int // total_changes of sessions the ops created and deleted
	lat       []float64
	failed    int
	errs      []error // the first few failures
	// stuck is set when the client gave up because operation after
	// operation failed: psmd is gone or wedged, and spinning on errors
	// until the deadline would measure nothing.
	stuck bool
}

// stuckAfter is how many consecutive failed operations end a client's
// round early.
const stuckAfter = 50

// timedRounds drives the closed loop: each client sends its next
// operation only when the previous one has been answered. Between
// rounds the clients pause, so the total_changes and Mallocs samples
// bracket exactly the work of the round.
func timedRounds(cfg Config, inst *instance, res *Result) error {
	plan, psmd := inst.plan, inst.psmd
	callers := make([]Caller, plan.Clients)
	for i := range callers {
		callers[i] = psmd.NewCaller()
	}
	sampler := psmd.NewCaller()
	// sample sums total_changes over each client's long-lived sessions.
	sample := func() ([]int, error) {
		out := make([]int, plan.Clients)
		for cl := range out {
			for _, id := range plan.Sessions(cl) {
				st, err := GetSession(sampler, id)
				if err != nil {
					return nil, err
				}
				out[cl] += st.TotalChanges
			}
		}
		return out, nil
	}

	var rates, p50s, allocs, peaks, allLat []float64
	var totalMallocs, totalChanges float64
	roundDur := time.Duration(cfg.RoundSeconds * float64(time.Second))
	for r := 0; r < cfg.Rounds; r++ {
		before, err := sample()
		if err != nil {
			return err
		}
		m0, err := psmd.Mallocs()
		if err != nil {
			return err
		}
		psmd.ResetPeakRSS()
		rounds := make([]clientRound, plan.Clients)
		start := time.Now()
		deadline := start.Add(roundDur)
		var wg sync.WaitGroup
		for cl := range rounds {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				cr := &rounds[cl]
				streak := 0
				for time.Now().Before(deadline) && !cr.stuck {
					t0 := time.Now()
					changes, err := plan.Op(callers[cl], cl)
					cr.lat = append(cr.lat, float64(time.Since(t0))/float64(time.Millisecond))
					cr.opChanges += changes
					if err == nil {
						streak = 0
						continue
					}
					cr.failed++
					if len(cr.errs) < maxFailureNotes {
						cr.errs = append(cr.errs, err)
					}
					streak++
					cr.stuck = streak >= stuckAfter
				}
				cr.elapsed = time.Since(start)
			}(cl)
		}
		wg.Wait()
		peak, err := psmd.PeakRSSMB()
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		m1, err := psmd.Mallocs()
		if err != nil {
			return err
		}
		after, err := sample()
		if err != nil {
			return err
		}

		// A client's rate is over its own elapsed time, so the idle
		// tail of the client that finished first is not charged to it.
		var rate, changes float64
		var lat []float64
		for cl, cr := range rounds {
			d := float64(after[cl] - before[cl] + cr.opChanges)
			changes += d
			rate += d / cr.elapsed.Seconds()
			lat = append(lat, cr.lat...)
			res.Attempted += len(cr.lat) - len(cr.errs)
			res.Failed += cr.failed - len(cr.errs)
			for _, err := range cr.errs {
				res.fail(err)
			}
			if cr.stuck {
				return fmt.Errorf("round %d: %d operations in a row failed, last: %v (psmd log: %s)",
					r, stuckAfter, cr.errs[len(cr.errs)-1], psmd.LogTail())
			}
		}
		if changes <= 0 {
			return fmt.Errorf("round %d: no working-memory changes observed", r)
		}
		rates = append(rates, rate)
		p50s = append(p50s, Median(lat))
		allocs = append(allocs, float64(m1-m0)/changes)
		totalMallocs += float64(m1 - m0)
		totalChanges += changes
		allLat = append(allLat, lat...)
	}

	sort.Float64s(allLat)
	res.Metrics["wme_changes_per_s"] = Metric{Value: Median(rates), Unit: "1/s", Rounds: rates}
	res.Metrics["op_p50_ms"] = Metric{Value: Percentile(allLat, 50), Unit: "ms", Rounds: p50s}
	res.Metrics["allocs_per_change"] = Metric{Value: totalMallocs / totalChanges, Unit: "count", Rounds: allocs}
	// The watermark of a whole run is an extreme value — one unlucky
	// overlap of two sessions' garbage moves it by a fifth — so the
	// metric is the median of the rounds' own watermarks.
	res.Metrics["peak_rss_mb"] = Metric{Value: Median(peaks), Unit: "MiB", Rounds: peaks}
	res.Info["op_samples"] = float64(len(allLat))
	if p := TailPercentile(len(allLat)); p > 0 {
		res.Info["op_tail_percentile"] = p
		res.Info["op_tail_ms"] = Percentile(allLat, p)
	}
	return nil
}

// recoverCheck is the durable workload's closing check: note what
// every session last acknowledged, kill -9 psmd, restart it on the
// same data directory, and require every session back at exactly that
// state. Each session compared is one attempted operation.
func recoverCheck(cfg Config, inst *instance, res *Result) error {
	c := inst.psmd.NewCaller()
	var ids []string
	for cl := 0; cl < inst.plan.Clients; cl++ {
		ids = append(ids, inst.plan.Sessions(cl)...)
	}
	acked := make(map[string]SessionReply, len(ids))
	for _, id := range ids {
		st, err := GetSession(c, id)
		if err != nil {
			return err
		}
		acked[id] = st
	}
	inst.psmd.Kill()
	t0 := time.Now()
	restarted, err := StartPsmd(cfg.PsmdBin, filepath.Join(cfg.WorkDir, inst.plan.Name+"-psmd-recovered.log"),
		append([]string{"-data-dir", inst.dataDir}, DurableArgs...)...)
	if err != nil {
		return fmt.Errorf("restart on %s: %w", inst.dataDir, err)
	}
	inst.psmd = restarted
	res.Info["recover_restart_s"] = time.Since(t0).Seconds()
	c = inst.psmd.NewCaller()
	for _, id := range ids {
		got, err := GetSession(c, id)
		want := acked[id]
		want.Recovered = true
		switch {
		case err != nil:
			res.fail(err)
		case got != want:
			res.fail(fmt.Errorf("session %s recovered to %+v, last acknowledged %+v", id, got, want))
		default:
			res.Attempted++
		}
	}
	return nil
}
