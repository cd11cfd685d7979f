package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/workload"
)

// Allocation ceilings of the three hot routes, measured through
// Handler() in process: request log, tracing, deadline, decode, shard
// dispatch, apply and match, and reply encode. Each is the count
// measured when the ceiling was set (18, 13 and 591) plus headroom for
// a -race build, which counts up to four more; lower it in the change
// that lowers the count. Before the routes had their own wire codec the
// same requests took 59, 34 and 10,045; before a shard became a turn
// that the request's own goroutine holds, 28, 20 and 5,174; before the
// serial matcher built join outputs into the tokens deletes freed, 21,
// 13 and 5,166; before attributes were decoded straight into a fact's
// fields and expiries were kept in a typed heap, 20, 13 and 3,005;
// before the conflict set held matches and built an instantiation only
// for the one that fires, 18, 13 and 1,912; and before the act phase
// read variables through compiled slots and built changes and fields
// in the engine's reused buffers, 18, 13 and 691.
const (
	changesAllocCeiling = 22
	runAllocCeiling     = 17
	streamAllocCeiling  = 595
)

// chatterPack is a small monitoring pack in the shape psmbench's
// chatter workload drives: readings joined against per-sensor limits.
const chatterPack = `
(p note-breach
    (reading ^sensor <s> ^value <v> ^seq <q>)
    (limit ^sensor <s> ^max < <v>)
  -->
    (make note ^sensor <s> ^seq <q>))

(p drop-note
    (note ^sensor <s> ^seq <q>)
   -(reading ^sensor <s> ^seq <q>)
  -->
    (remove 1))
`

// sinkWriter is a ResponseWriter that keeps one header map and drops the
// body, so the writer itself allocates nothing per request.
type sinkWriter struct {
	header http.Header
	status int
}

func (w *sinkWriter) Header() http.Header         { return w.header }
func (w *sinkWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *sinkWriter) WriteHeader(status int)      { w.status = status }

// hotRouteAllocs serves the prebuilt requests one per run through h and
// returns the mean allocations per request. The requests are built
// before counting starts; each must answer 200.
func hotRouteAllocs(t *testing.T, h http.Handler, reqs []*http.Request) float64 {
	t.Helper()
	w := &sinkWriter{header: http.Header{}}
	i := 0
	allocs := testing.AllocsPerRun(len(reqs)-1, func() {
		w.status = http.StatusOK
		h.ServeHTTP(w, reqs[i])
		if w.status != http.StatusOK {
			panic(fmt.Sprintf("request %d: status %d", i, w.status))
		}
		i++
	})
	return allocs
}

func TestHotRouteAllocs(t *testing.T) {
	srv := New(Config{Shards: 1})
	defer srv.Close()
	h := srv.Handler()
	post := func(path, body string) *http.Request {
		return httptest.NewRequest("POST", APIVersion+path, strings.NewReader(body))
	}
	serve := func(r *http.Request) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code >= 300 {
			t.Fatalf("%s %s: %d %s", r.Method, r.URL.Path, rec.Code, rec.Body)
		}
	}
	serve(post("/sessions", `{"id":"chatter","program":`+jsonString(chatterPack)+`}`))
	serve(post("/sessions", `{"id":"fraud","program":`+jsonString(workload.FraudRules)+`}`))
	var limits []string
	for s := 0; s < 16; s++ {
		limits = append(limits, fmt.Sprintf(`{"op":"assert","class":"limit","attrs":{"sensor":"n%d","max":%d}}`, s, 80+s))
	}
	serve(post("/sessions/chatter/changes", `{"changes":[`+strings.Join(limits, ",")+`]}`))
	// Tags 1-16 are the limits, 17 the first reading; request i retracts
	// the reading request i-1 asserted and asserts the next one.
	serve(post("/sessions/chatter/changes", `{"changes":[{"op":"assert","class":"reading","attrs":{"sensor":"n0","value":50,"seq":0}}]}`))

	const runs = 200
	changes := make([]*http.Request, runs+1)
	for i := range changes {
		changes[i] = post("/sessions/chatter/changes", fmt.Sprintf(
			`{"changes":[{"op":"retract","tag":%d},{"op":"assert","class":"reading","attrs":{"sensor":"n%d","value":%d,"seq":%d}}]}`,
			17+i, i%16, (i*37)%100, i+1))
	}
	cycles := make([]*http.Request, runs+1)
	for i := range cycles {
		cycles[i] = post("/sessions/chatter/run", `{"cycles":4}`)
	}
	const streamRuns = 20
	events := workload.FraudEvents(workload.FraudParams{Cards: 50, Events: 256 * (streamRuns + 1), Window: 20, Seed: 7})
	stream := make([]*http.Request, streamRuns+1)
	for i := range stream {
		stream[i] = post("/sessions/fraud/stream", string(workload.NDJSON(events[256*i:256*(i+1)])))
	}

	for _, tc := range []struct {
		route   string
		reqs    []*http.Request
		ceiling float64
	}{
		{"/changes (one retract, one 3-attribute assert)", changes, changesAllocCeiling},
		{"/run {\"cycles\":4}", cycles, runAllocCeiling},
		{"/stream (one 256-event batch)", stream, streamAllocCeiling},
	} {
		got := hotRouteAllocs(t, h, tc.reqs)
		t.Logf("%s: %.1f allocs per request (ceiling %.0f)", tc.route, got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("%s: %.1f allocs per request, ceiling %.0f", tc.route, got, tc.ceiling)
		}
	}
}

// cachedCreateAllocCeiling bounds the allocations of creating and then
// deleting a serial-Rete Manners session whose source the server's
// program table already holds, through Handler(): request decode, an
// empty network and conflict set over the shared plan, the trace ring,
// the reply, and the delete's trace archive. It is the count measured
// when the ceiling was set (69) plus the hot routes' -race headroom of
// four for each of the two requests (a -race build read 73 and 74);
// lower it in the change that lowers the count. While every create
// parsed and compiled its source, the pair took 760.
const cachedCreateAllocCeiling = 77

func TestCachedCreateAllocs(t *testing.T) {
	srv := New(Config{Shards: 1})
	defer srv.Close()
	h := srv.Handler()
	create := func() *http.Request {
		return httptest.NewRequest("POST", APIVersion+"/sessions",
			strings.NewReader(`{"id":"m","program":`+jsonString(workload.MissManners)+`}`))
	}
	del := func() *http.Request { return httptest.NewRequest("DELETE", APIVersion+"/sessions/m", nil) }
	const runs = 100
	reqs := make([]*http.Request, 0, 2*(runs+2))
	for i := 0; i < runs+2; i++ {
		reqs = append(reqs, create(), del())
	}
	w := &sinkWriter{header: http.Header{}}
	serve := func(r *http.Request, want int) {
		w.status = http.StatusOK
		h.ServeHTTP(w, r)
		if w.status != want {
			panic(fmt.Sprintf("%s %s: status %d, want %d", r.Method, r.URL.Path, w.status, want))
		}
	}
	// The first pair compiles the source into the table.
	serve(reqs[0], http.StatusCreated)
	serve(reqs[1], http.StatusNoContent)
	i := 2
	got := testing.AllocsPerRun(runs, func() {
		serve(reqs[i], http.StatusCreated)
		serve(reqs[i+1], http.StatusNoContent)
		i += 2
	})
	t.Logf("create and delete of a cached source: %.1f allocs (ceiling %d)", got, cachedCreateAllocCeiling)
	if got > cachedCreateAllocCeiling {
		t.Errorf("create and delete of a cached source: %.1f allocs, ceiling %d", got, cachedCreateAllocCeiling)
	}
	if n := srv.programs.compiles.Value(); n != 1 {
		t.Errorf("%d compiles of one source, want 1", n)
	}
}
