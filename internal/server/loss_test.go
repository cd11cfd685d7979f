package server_test

// Endpoint and metrics coverage for the loss-factor accounting: the
// per-session /loss report, its presence on /profile, and the labelled
// psmd_sched_phase_seconds_total / psmd_task_activations series.

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
)

// labelledMetric extracts the value of one labelled series line
// (`name{label} value`) from text exposition, or -1 when absent.
func labelledMetric(text, name, label string) float64 {
	prefix := name + "{" + label + "} "
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, prefix)), 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// TestLossEndpointAndMetrics drives a parallel-rete session and asserts
// the loss report is served at /loss and /profile, that its phase books
// reconstruct Apply wall time, and that the per-phase seconds and
// task-size counts reach /metrics.
func TestLossEndpointAndMetrics(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})

	c.must("POST", "/sessions", server.CreateSpec{
		ID: "loss", Program: skewedSrc, Matcher: "parallel-rete", Workers: 4,
	}, nil, http.StatusCreated)

	changes := []server.ChangeSpec{
		{Op: server.OpAssert, Class: "goal", Attrs: attrs("type", "pick", "color", "red")},
	}
	for i := 0; i < 32; i++ {
		changes = append(changes, server.ChangeSpec{
			Op: server.OpAssert, Class: "block",
			Attrs: attrs("id", float64(i), "color", "red"),
		})
	}
	c.must("POST", "/sessions/loss/changes", server.ChangesRequest{Changes: changes}, nil, http.StatusOK)

	var lr server.LossResult
	c.must("GET", "/sessions/loss/loss", nil, &lr, http.StatusOK)
	if !lr.Supported || lr.Report == nil {
		t.Fatalf("loss response = %+v, want supported with a report", lr)
	}
	l := lr.Report
	if l.Workers != 4 || l.Batches == 0 || l.ApplySeconds <= 0 {
		t.Fatalf("loss header = workers %d batches %d apply %gs, want 4/>0/>0",
			l.Workers, l.Batches, l.ApplySeconds)
	}
	var phaseSum float64
	for _, p := range l.Phases {
		phaseSum += p.Seconds
	}
	rebuilt := l.SeedSeconds + l.MergeSeconds + phaseSum/float64(l.Workers)
	if rel := (rebuilt - l.ApplySeconds) / l.ApplySeconds; rel < -0.05 || rel > 0.05 {
		t.Errorf("phases reconstruct %gs of %gs apply wall (%.1f%% off)",
			rebuilt, l.ApplySeconds, 100*rel)
	}
	var shares float64
	for _, comp := range l.Decomposition {
		shares += comp.Share
	}
	if shares < 0.99 || shares > 1.05 {
		t.Errorf("decomposition shares sum to %g, want ~1", shares)
	}
	var tasks int64
	for _, b := range l.TaskSizes {
		tasks += b.Count
	}
	if tasks == 0 {
		t.Error("task-size histogram is empty")
	}
	if len(l.PerWorker) != 4 {
		t.Errorf("per-worker breakdown has %d lanes, want 4", len(l.PerWorker))
	}

	// The same report rides the profile endpoint.
	var prof server.ProfileResult
	c.must("GET", "/sessions/loss/profile", nil, &prof, http.StatusOK)
	if prof.Loss == nil || prof.Loss.Batches != l.Batches {
		t.Errorf("profile loss = %+v, want the /loss report", prof.Loss)
	}

	resp, err := http.Get(c.raw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	if v := labelledMetric(text, "psmd_sched_phase_seconds_total", `phase="match"`); v <= 0 {
		t.Errorf(`psmd_sched_phase_seconds_total{phase="match"} = %v, want > 0`, v)
	}
	if v := labelledMetric(text, "psmd_sched_phase_seconds_total", `phase="seed"`); v <= 0 {
		t.Errorf(`psmd_sched_phase_seconds_total{phase="seed"} = %v, want > 0`, v)
	}
	found := false
	for _, le := range []string{"256", "1024", "4096", "16384", "65536", "262144", "+Inf"} {
		if labelledMetric(text, "psmd_task_activations", `le="`+le+`"`) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no psmd_task_activations bucket is positive:\n%s", text)
	}
}

// TestLossUnsupportedMatcher pins the answer for a matcher without a
// scheduler (naive): the endpoint reports supported=false with no
// report rather than erroring, so clients can probe capability with a
// plain GET.
func TestLossUnsupportedMatcher(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "naive", Program: skewedSrc, Matcher: "naive",
	}, nil, http.StatusCreated)

	var lr server.LossResult
	c.must("GET", "/sessions/naive/loss", nil, &lr, http.StatusOK)
	if lr.Supported || lr.Report != nil {
		t.Errorf("loss on naive matcher = %+v, want unsupported and empty", lr)
	}
	if lr.Matcher != "naive" {
		t.Errorf("matcher = %q, want naive", lr.Matcher)
	}
}
