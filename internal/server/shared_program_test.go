package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/sym"
	"repro/internal/workload"
)

// mannersReplies is what psmd answers a Manners solve with: the /changes
// reply for the guest list, the /run reply to halt, and the final /wm.
type mannersReplies struct {
	Apply server.ApplyResult
	Run   server.RunResult
	WM    []server.WMEInfo
}

// uncachedMannersReplies builds the replies from a core.NewSystem of
// the source, which parses and compiles it afresh.
func uncachedMannersReplies(t *testing.T, kind core.MatcherKind, wmes []*ops5.WME) mannersReplies {
	t.Helper()
	sys, err := core.NewSystem(workload.MissManners, core.Options{Matcher: kind, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var r mannersReplies
	sys.Assert(wmes...)
	r.Apply = server.ApplyResult{Applied: len(wmes), WMSize: sys.WM.Size(), ConflictSize: sys.CS.Len()}
	for i := range wmes {
		r.Apply.Tags = append(r.Apply.Tags, i+1)
	}
	n, err := sys.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Run = server.RunResult{Cycles: n, Fired: sys.Fired, Halted: sys.Halted, Quiesced: !sys.Halted,
		WMSize: sys.WM.Size(), ConflictSize: sys.CS.Len()}
	for _, w := range sys.WM.Elements() {
		attrs := make(map[string]ops5.Value)
		for _, f := range w.Fields() {
			attrs[sym.Name(f.Attr)] = f.Val
		}
		r.WM = append(r.WM, server.WMEInfo{Tag: w.TimeTag, Class: w.Class(), Attrs: attrs})
	}
	return r
}

// TestSessionsShareOneCompiledProgram solves Manners concurrently in
// sessions of all three matchers, created at once from one source: the
// source is compiled once, every session runs on that one program and
// plan, and each answers exactly what a system compiled for it alone
// answers.
func TestSessionsShareOneCompiledProgram(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 4})
	wmes, err := workload.MannersWM(workload.DefaultMannersParams())
	if err != nil {
		t.Fatal(err)
	}
	var guests server.ChangesRequest
	for _, w := range wmes {
		attrs := make(map[string]ops5.Value)
		for _, f := range w.Fields() {
			attrs[sym.Name(f.Attr)] = f.Val
		}
		guests.Changes = append(guests.Changes, server.ChangeSpec{Op: server.OpAssert, Class: w.Class(), Attrs: attrs})
	}
	kinds := []core.MatcherKind{core.SerialRete, core.ParallelRete, core.Naive}
	want := make(map[core.MatcherKind]mannersReplies)
	for _, k := range kinds {
		want[k] = uncachedMannersReplies(t, k, wmes)
	}

	// call runs on the session goroutines, so it reports with t.Error.
	call := func(method, path string, body, out any) bool {
		var rd io.Reader
		if body != nil {
			buf, _ := json.Marshal(body)
			rd = bytes.NewReader(buf)
		}
		req, _ := http.NewRequest(method, c.base+path, rd)
		resp, err := c.http.Do(req)
		if err != nil {
			t.Error(err)
			return false
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			t.Errorf("%s %s: %d %s", method, path, resp.StatusCode, raw)
			return false
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return false
		}
		return true
	}
	const perKind = 3
	var wg sync.WaitGroup
	for _, k := range kinds {
		for i := 0; i < perKind; i++ {
			wg.Add(1)
			go func(k core.MatcherKind, id string) {
				defer wg.Done()
				var info server.SessionInfo
				var got mannersReplies
				if !call("POST", "/sessions", server.CreateSpec{ID: id, Program: workload.MissManners, Matcher: k.String(), Workers: 2}, &info) ||
					!call("POST", "/sessions/"+id+"/changes", guests, &got.Apply) ||
					!call("POST", "/sessions/"+id+"/run", server.RunRequest{}, &got.Run) ||
					!call("GET", "/sessions/"+id+"/wm", nil, &got.WM) {
					return
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("%s: replies differ from an uncached system's\n got %+v\nwant %+v", id, got, want[k])
				}
			}(k, fmt.Sprintf("%s-%d", k, i))
		}
	}
	wg.Wait()
	if n := scrapeMetric(t, c, "psmd_program_compiles_total"); n != 1 {
		t.Errorf("psmd_program_compiles_total = %v for %d sessions of one source, want 1", n, perKind*len(kinds))
	}
	if n := scrapeMetric(t, c, "psmd_programs_cached"); n != 1 {
		t.Errorf("psmd_programs_cached = %v, want 1", n)
	}
}

// TestRecoveryCompilesEachSourceOnce restarts a durable server over
// sessions of one source: the restarted server compiles it once.
func TestRecoveryCompilesEachSourceOnce(t *testing.T) {
	cfg := server.Config{Shards: 2, DataDir: t.TempDir()}
	srv := server.New(cfg)
	const sessions = 5
	for i := 0; i < sessions; i++ {
		spec := server.CreateSpec{ID: fmt.Sprintf("c%d", i), Program: counterSrc, Matcher: []string{"rete", "parallel-rete", "naive"}[i%3]}
		if _, err := srv.CreateSession(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()

	_, c := newTestServer(t, cfg)
	if n := scrapeMetric(t, c, "psmd_recovered_sessions"); n != sessions {
		t.Fatalf("psmd_recovered_sessions = %v, want %d", n, sessions)
	}
	if n := scrapeMetric(t, c, "psmd_program_compiles_total"); n != 1 {
		t.Errorf("recovering %d sessions of one source took %v compiles, want 1", sessions, n)
	}
}
