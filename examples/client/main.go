// Command client is a load generator for the psmd rule-engine service.
// It replays the Miss Manners workload (internal/workload) over the
// HTTP JSON API: one session per concurrent worker, guest list posted
// in batches, then recognize-act cycles run in chunks until the program
// halts. It reports end-to-end working-memory changes per second — the
// paper's throughput metric, measured through the full service stack —
// plus p50/p95/p99 request latency, and echoes the daemon's own psmd_*
// counters afterwards.
//
// Usage examples:
//
//	client                                  # in-process server, defaults
//	client -addr localhost:8080             # against a running psmd
//	client -sessions 8 -guests 16 -matcher parallel-rete
//	client -json bench.json                 # machine-readable summary
//	client -obs -pprof cpu.pprof            # observability walkthrough
//
// With -obs the run finishes with an observability walkthrough: a probe
// session is traced (GET /trace), its hot nodes ranked (GET /profile),
// and its trace fetched again after deletion to show archive fallback;
// with an in-process server the request log (JSON, with trace IDs) goes
// to stderr. -pprof FILE captures a short CPU profile from
// /debug/pprof/profile.
//
// With -durable-demo the run finishes with a crash/restart
// walkthrough: an in-process durable server (WAL + snapshots under
// -data-dir, or a temp dir) runs part of a workload, is abandoned
// without shutdown, and a second server recovers the session with
// identical state before resuming it to completion.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/sym"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "psmd address (host:port); empty starts an in-process server")
	sessions := flag.Int("sessions", 4, "concurrent sessions")
	guests := flag.Int("guests", 8, "manners guests per session (even)")
	batch := flag.Int("batch", 8, "working-memory changes per POST")
	chunk := flag.Int("chunk", 64, "recognize-act cycles per run request")
	matcher := flag.String("matcher", "", "matcher per session (rete, parallel-rete, treat, ...)")
	workers := flag.Int("workers", 0, "parallel-matcher workers per session (0 = server default)")
	jsonOut := flag.String("json", "", "write a machine-readable result summary to this file")
	obsDemo := flag.Bool("obs", false, "finish with an observability walkthrough (trace, profile, archive)")
	pprofOut := flag.String("pprof", "", "capture a 1s CPU profile from /debug/pprof/profile to this file")
	durableDemo := flag.Bool("durable-demo", false, "finish with a crash/restart durability walkthrough (in-process servers only)")
	dataDir := flag.String("data-dir", "", "data directory for -durable-demo (default: a temp dir, removed afterwards)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "client: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	base := "http://" + *addr
	if *addr == "" {
		cfg := server.Config{}
		if *obsDemo {
			// Surface the daemon's structured request log (JSON, with
			// trace IDs) on stderr so one run shows the whole pipeline.
			logger, err := obs.NewLogger(os.Stderr, "json", slog.LevelInfo)
			if err != nil {
				fmt.Fprintf(os.Stderr, "client: %v\n", err)
				os.Exit(1)
			}
			cfg.Logger = logger
		}
		srv := server.New(cfg)
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Printf("in-process server at %s\n", base)
	}
	api := base + server.APIVersion

	params := workload.DefaultMannersParams()
	params.Guests = *guests

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		changes int // submitted + fired, per the daemon's accounting
		cycles  int
		fired   int
		failed  []error
		lat     latencies
	)
	t0 := time.Now()
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := params
			p.Seed = params.Seed + int64(i)
			st, err := replay(api, &lat, fmt.Sprintf("load-%03d", i), *matcher, *workers, p, *batch, *chunk)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed = append(failed, fmt.Errorf("session %d: %w", i, err))
				return
			}
			changes += st.TotalChanges
			cycles += st.Cycles
			fired += st.Fired
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	for _, err := range failed {
		fmt.Fprintf(os.Stderr, "client: %v\n", err)
	}
	fmt.Printf("%d sessions, %d guests each: %d cycles, %d firings, %d wme changes in %v\n",
		*sessions-len(failed), *guests, cycles, fired, changes, elapsed.Round(time.Millisecond))
	fmt.Printf("end-to-end throughput: %.0f wme-changes/sec, %.0f firings/sec\n",
		float64(changes)/elapsed.Seconds(), float64(fired)/elapsed.Seconds())
	fmt.Printf("request latency: p50 %v  p95 %v  p99 %v (%d requests)\n",
		lat.percentile(50), lat.percentile(95), lat.percentile(99), len(lat.ds))
	phaseSecs := scrapePhaseSeconds(base)
	if len(phaseSecs) > 0 {
		names := make([]string, 0, len(phaseSecs))
		for n := range phaseSecs {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("scheduler phase seconds:")
		for _, n := range names {
			fmt.Printf(" %s=%.4f", n, phaseSecs[n])
		}
		fmt.Println()
	}

	if *jsonOut != "" {
		if err := writeResults(*jsonOut, results{
			Sessions: *sessions - len(failed), Guests: *guests, Matcher: *matcher,
			Cycles: cycles, Fired: fired, WMEChanges: changes,
			ElapsedSeconds:    elapsed.Seconds(),
			WMEChangesPerSec:  float64(changes) / elapsed.Seconds(),
			FiringsPerSec:     float64(fired) / elapsed.Seconds(),
			Requests:          len(lat.ds),
			LatencyP50Seconds: lat.percentile(50).Seconds(),
			LatencyP95Seconds: lat.percentile(95).Seconds(),
			LatencyP99Seconds: lat.percentile(99).Seconds(),
			PhaseSeconds:      phaseSecs,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "client: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *jsonOut)
	}

	fmt.Println("\nserver counters (/metrics):")
	printMetrics(base)

	if *obsDemo {
		if err := runObsDemo(base, api, *matcher); err != nil {
			fmt.Fprintf(os.Stderr, "client: obs demo: %v\n", err)
			os.Exit(1)
		}
	}
	if *pprofOut != "" {
		if err := capturePprof(base, *pprofOut); err != nil {
			fmt.Fprintf(os.Stderr, "client: pprof: %v\n", err)
			os.Exit(1)
		}
	}
	if *durableDemo {
		if err := runDurableDemo(*dataDir, *matcher); err != nil {
			fmt.Fprintf(os.Stderr, "client: durable demo: %v\n", err)
			os.Exit(1)
		}
	}
	if len(failed) > 0 {
		os.Exit(1)
	}
}

// results is the machine-readable run summary behind -json.
type results struct {
	Sessions          int     `json:"sessions"`
	Guests            int     `json:"guests"`
	Matcher           string  `json:"matcher,omitempty"`
	Cycles            int     `json:"cycles"`
	Fired             int     `json:"fired"`
	WMEChanges        int     `json:"wme_changes"`
	ElapsedSeconds    float64 `json:"elapsed_seconds"`
	WMEChangesPerSec  float64 `json:"wme_changes_per_sec"`
	FiringsPerSec     float64 `json:"firings_per_sec"`
	Requests          int     `json:"requests"`
	LatencyP50Seconds float64 `json:"latency_p50_seconds"`
	LatencyP95Seconds float64 `json:"latency_p95_seconds"`
	LatencyP99Seconds float64 `json:"latency_p99_seconds"`
	// PhaseSeconds echoes psmd_sched_phase_seconds_total{phase=...} —
	// the loss-factor accounting series; absent unless sessions use the
	// parallel matcher.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// writeResults writes the run summary as indented JSON.
func writeResults(path string, r results) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runObsDemo walks the observability surface with a fresh probe
// session: run a small workload under a known X-Request-Id, show its
// cycle trace and hot-node profile, then delete the session and show
// the trace still answering from the archive.
func runObsDemo(base, api, matcher string) error {
	const id = "obs-probe"
	lat := &latencies{}
	p := workload.DefaultMannersParams()
	p.Guests = 4
	wmes, err := workload.MannersWM(p)
	if err != nil {
		return err
	}
	err = post(lat, api+"/sessions", server.CreateSpec{
		ID: id, Program: workload.MissManners, Matcher: matcher,
	}, nil)
	if err != nil {
		return err
	}
	req := server.ChangesRequest{}
	for _, w := range wmes {
		req.Changes = append(req.Changes, server.ChangeSpec{
			Op: server.OpAssert, Class: w.Class(), Attrs: attrs(w),
		})
	}
	if err := post(lat, api+"/sessions/"+id+"/changes", req, nil); err != nil {
		return err
	}
	if err := post(lat, api+"/sessions/"+id+"/run", server.RunRequest{}, nil); err != nil {
		return err
	}

	fmt.Println("\nobservability walkthrough (session obs-probe):")
	var tr server.TraceResult
	if err := get(lat, api+"/sessions/"+id+"/trace", &tr); err != nil {
		return err
	}
	fmt.Printf("  trace: %d spans retained of %d recorded\n", len(tr.Spans), tr.Total)
	for _, sp := range tail(tr.Spans, 3) {
		fmt.Printf("    cycle %3d [%s] trace=%s total %.3fms (match %.3f select %.3f act %.3f) fired=%d wm=%d\n",
			sp.Cycle, sp.Kind, sp.TraceID, sp.Total().Seconds()*1e3,
			sp.Match.Seconds()*1e3, sp.Select.Seconds()*1e3, sp.Act.Seconds()*1e3,
			sp.Fired, sp.WMSize)
	}

	var prof server.ProfileResult
	if err := get(lat, api+"/sessions/"+id+"/profile?top=5", &prof); err != nil {
		return err
	}
	fmt.Printf("  profile: matcher=%s cycles=%d total cost %.0f (top %d nodes of %d)\n",
		prof.Matcher, prof.Cycles, prof.TotalCost, len(prof.Nodes), len(prof.Nodes)+prof.Truncated)
	for _, n := range prof.Nodes {
		fmt.Printf("    %5.1f%%  cost %10.0f  acts %6d  tested %7d  emitted %6d  %s\n",
			n.CostShare*100, n.Cost, n.Activations, n.TokensTested, n.PairsEmitted, n.Label)
	}
	if !prof.NodesSupported {
		fmt.Println("    (matcher reports no per-node counters; whole-matcher stats only)")
	}

	var loss server.LossResult
	if err := get(lat, api+"/sessions/"+id+"/loss", &loss); err != nil {
		return err
	}
	if loss.Supported && loss.Report != nil {
		l := loss.Report
		fmt.Printf("  loss: workers=%d apply=%.3fms true-speedup=%.2f nominal=%.2f loss-factor=%.2f\n",
			l.Workers, l.ApplySeconds*1e3, l.TrueSpeedup, l.NominalConcurrency, l.LossFactor)
		for _, c := range l.Decomposition {
			fmt.Printf("    %-18s %5.1f%%\n", c.Name, 100*c.Share)
		}
	} else {
		fmt.Printf("  loss: matcher %s keeps no loss accounting (use -matcher parallel-rete)\n", loss.Matcher)
	}

	reqDel, _ := http.NewRequest(http.MethodDelete, api+"/sessions/"+id, nil)
	if resp, err := http.DefaultClient.Do(reqDel); err == nil {
		resp.Body.Close()
	}
	if err := get(lat, api+"/sessions/"+id+"/trace", &tr); err != nil {
		return err
	}
	fmt.Printf("  after delete: trace still served, evicted=%v, %d spans archived\n",
		tr.Evicted, len(tr.Spans))
	return nil
}

// runDurableDemo walks the durability surface with two in-process
// servers sharing one data directory: the first creates a session,
// loads working memory, and runs part of the workload before being
// abandoned without shutdown (a simulated kill -9 — with fsync=always
// the WAL is already on disk); the second recovers the session from
// snapshot + WAL replay, shows that working memory and the conflict
// set survived intact, forces a checkpoint through the snapshot
// endpoint, and runs the workload to completion.
func runDurableDemo(dataDir, matcher string) error {
	const id = "crash-probe"
	if dataDir == "" {
		dir, err := os.MkdirTemp("", "psmd-durable-demo-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		dataDir = dir
	}
	lat := &latencies{}
	p := workload.DefaultMannersParams()
	p.Guests = 6
	wmes, err := workload.MannersWM(p)
	if err != nil {
		return err
	}
	cfg := server.Config{DataDir: dataDir} // fsync defaults to always

	fmt.Printf("\ndurability walkthrough (session %s, data dir %s):\n", id, dataDir)

	// Life 1: create, load, run a few cycles, then "crash".
	srv1 := server.New(cfg)
	ts1 := httptest.NewServer(srv1.Handler())
	api1 := ts1.URL + server.APIVersion
	err = post(lat, api1+"/sessions", server.CreateSpec{
		ID: id, Program: workload.MissManners, Matcher: matcher,
	}, nil)
	if err != nil {
		return err
	}
	req := server.ChangesRequest{}
	for _, w := range wmes {
		req.Changes = append(req.Changes, server.ChangeSpec{
			Op: server.OpAssert, Class: w.Class(), Attrs: attrs(w),
		})
	}
	if err := post(lat, api1+"/sessions/"+id+"/changes", req, nil); err != nil {
		return err
	}
	if err := post(lat, api1+"/sessions/"+id+"/run", server.RunRequest{Cycles: 8}, nil); err != nil {
		return err
	}
	var before server.SessionInfo
	if err := get(lat, api1+"/sessions/"+id, &before); err != nil {
		return err
	}
	fmt.Printf("  before crash: cycles=%d fired=%d wm=%d conflicts=%d wal_seq=%d\n",
		before.Cycles, before.Fired, before.WMSize, before.ConflictSize, before.WALSeq)
	// Abandon srv1 without Close: no drain, no final snapshot. The
	// session now exists only as manifest + snapshot + WAL tail.
	ts1.Close()
	fmt.Println("  ... server killed without shutdown ...")

	// Life 2: a new server on the same directory recovers the session.
	srv2 := server.New(cfg)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	api2 := ts2.URL + server.APIVersion

	var after server.SessionInfo
	if err := get(lat, api2+"/sessions/"+id, &after); err != nil {
		return err
	}
	fmt.Printf("  recovered:    cycles=%d fired=%d wm=%d conflicts=%d (replayed %d wal records)\n",
		after.Cycles, after.Fired, after.WMSize, after.ConflictSize, after.ReplayedRecords)
	if !after.Recovered {
		return fmt.Errorf("session %s did not report recovered=true", id)
	}
	if after.Cycles != before.Cycles || after.Fired != before.Fired ||
		after.WMSize != before.WMSize || after.ConflictSize != before.ConflictSize {
		return fmt.Errorf("recovered state diverged: before=%+v after=%+v", before, after)
	}

	var snap server.SnapshotResult
	if err := post(lat, api2+"/sessions/"+id+"/snapshot", struct{}{}, &snap); err != nil {
		return err
	}
	fmt.Printf("  checkpoint:   seq=%d, %d wmes, %d bytes on disk\n", snap.Seq, snap.WMEs, snap.Bytes)

	for {
		var run server.RunResult
		if err := post(lat, api2+"/sessions/"+id+"/run", server.RunRequest{Cycles: 64}, &run); err != nil {
			return err
		}
		if run.Halted || run.Quiesced {
			break
		}
	}
	var final server.SessionInfo
	if err := get(lat, api2+"/sessions/"+id, &final); err != nil {
		return err
	}
	fmt.Printf("  resumed to completion: cycles=%d fired=%d wm=%d halted=%v\n",
		final.Cycles, final.Fired, final.WMSize, final.Halted)
	return nil
}

// tail returns the last n elements of spans.
func tail(spans []obs.CycleSpan, n int) []obs.CycleSpan {
	if len(spans) > n {
		return spans[len(spans)-n:]
	}
	return spans
}

// capturePprof saves a short CPU profile from the daemon.
func capturePprof(base, path string) error {
	resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("cpu profile (%d bytes) written to %s\n", len(data), path)
	return nil
}

// replay drives one session to completion and returns its final stats.
// base is the versioned API base; every request's round-trip time is
// recorded in lat.
func replay(base string, lat *latencies, id, matcher string, workers int, p workload.MannersParams, batch, chunk int) (server.SessionInfo, error) {
	var stats server.SessionInfo
	wmes, err := workload.MannersWM(p)
	if err != nil {
		return stats, err
	}
	err = post(lat, base+"/sessions", server.CreateSpec{
		ID: id, Program: workload.MissManners, Matcher: matcher, Workers: workers,
	}, nil)
	if err != nil {
		return stats, err
	}
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, base+"/sessions/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	for start := 0; start < len(wmes); start += batch {
		end := min(start+batch, len(wmes))
		req := server.ChangesRequest{}
		for _, w := range wmes[start:end] {
			req.Changes = append(req.Changes, server.ChangeSpec{
				Op: server.OpAssert, Class: w.Class(), Attrs: attrs(w),
			})
		}
		if err := post(lat, base+"/sessions/"+id+"/changes", req, nil); err != nil {
			return stats, err
		}
	}

	for {
		var run server.RunResult
		if err := post(lat, base+"/sessions/"+id+"/run", server.RunRequest{Cycles: chunk}, &run); err != nil {
			return stats, err
		}
		if run.Halted || run.Quiesced {
			break
		}
	}
	return stats, get(lat, base+"/sessions/"+id, &stats)
}

// attrs returns a WME's attributes by name, as a change carries them.
func attrs(w *ops5.WME) map[string]ops5.Value {
	fields := w.Fields()
	attrs := make(map[string]ops5.Value, len(fields))
	for _, f := range fields {
		attrs[sym.Name(f.Attr)] = f.Val
	}
	return attrs
}

// latencies collects per-request round-trip times across all sessions.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

// observe records one request's round-trip time.
func (l *latencies) observe(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

// percentile returns the p-th percentile (nearest-rank) of the
// recorded latencies, rounded for display.
func (l *latencies) percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(l.ds))
	copy(sorted, l.ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx].Round(10 * time.Microsecond)
}

// post sends a JSON body and decodes the response into out (if non-nil),
// retrying after the suggested backoff on 429. Each round trip —
// including 429 rejections — is recorded in lat.
func post(lat *latencies, url string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	for {
		t0 := time.Now()
		resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		lat.observe(time.Since(t0))
		if resp.StatusCode == http.StatusTooManyRequests {
			after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(time.Duration(max(after, 1)) * time.Second)
			continue
		}
		return decode(resp, out)
	}
}

// get fetches a JSON document, recording the round trip in lat.
func get(lat *latencies, url string, out any) error {
	t0 := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	lat.observe(time.Since(t0))
	return decode(resp, out)
}

// decode checks the status and unmarshals the body.
func decode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// scrapePhaseSeconds reads the daemon's per-phase scheduler seconds
// (psmd_sched_phase_seconds_total{phase="..."}) from /metrics; nil when
// absent (no parallel-matcher session ran) or unreachable.
func scrapePhaseSeconds(base string) map[string]float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var out map[string]float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		name, ok := strings.CutPrefix(fields[0], `psmd_sched_phase_seconds_total{phase="`)
		if !ok {
			continue
		}
		name, ok = strings.CutSuffix(name, `"}`)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[name] = v
	}
	return out
}

// printMetrics echoes the daemon's psmd_* counter lines.
func printMetrics(base string) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "client: metrics: %v\n", err)
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "psmd_") && !strings.Contains(line, "_bucket{") {
			fmt.Println("  " + line)
		}
	}
}
