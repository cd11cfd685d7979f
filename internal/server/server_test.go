package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/sym"
)

// client is a minimal JSON client for the psmd HTTP API. Session
// paths are requested under the current API version prefix.
type client struct {
	t    *testing.T
	base string // versioned base for the sessions API
	raw  string // unversioned base for operational endpoints
	http *http.Client
}

func newClient(t *testing.T, ts *httptest.Server) *client {
	return &client{t: t, base: ts.URL + server.APIVersion, raw: ts.URL, http: ts.Client()}
}

// do sends a request and decodes the JSON response into out (ignored
// when nil). It returns the HTTP status.
func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

// must fails the test unless the call returned the wanted status.
func (c *client) must(method, path string, body, out any, want int) {
	c.t.Helper()
	if got := c.do(method, path, body, out); got != want {
		c.t.Fatalf("%s %s: status %d, want %d", method, path, got, want)
	}
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, newClient(t, ts)
}

// counterSrc counts up to ^limit then halts.
const counterSrc = `
(p count
    (counter ^n <n> ^limit <l>)
  - (counter ^n <l>)
  -->
    (modify 1 ^n (compute <n> + 1)))

(p done
    (counter ^n <n> ^limit <n>)
  -->
    (make result ^n <n>)
    (halt))
`

// TestConflictsInStrategyOrder: /conflicts lists a session's conflict
// set in its own strategy's order. Of m|1|4 (goal 1, item 4) and m|2|3
// (goal 2, item 3), LEX puts first the one with the most recent tag and
// MEA the one with the most recent goal.
func TestConflictsInStrategyOrder(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	const src = `(p m (goal ^id <g>) (item ^g <g>) --> (halt))`
	for _, tc := range []struct {
		strategy string
		want     []string
	}{
		{"lex", []string{"m|1|4", "m|2|3"}},
		{"mea", []string{"m|2|3", "m|1|4"}},
	} {
		c.must("POST", "/sessions", server.CreateSpec{ID: tc.strategy, Program: src, Strategy: tc.strategy}, nil, http.StatusCreated)
		c.must("POST", "/sessions/"+tc.strategy+"/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
			{Op: server.OpAssert, Class: "goal", Attrs: attrs("id", "g1")},
			{Op: server.OpAssert, Class: "goal", Attrs: attrs("id", "g2")},
			{Op: server.OpAssert, Class: "item", Attrs: attrs("g", "g2")},
			{Op: server.OpAssert, Class: "item", Attrs: attrs("g", "g1")},
		}}, nil, http.StatusOK)
		var insts []server.InstInfo
		c.must("GET", "/sessions/"+tc.strategy+"/conflicts", nil, &insts, http.StatusOK)
		var got []string
		for _, in := range insts {
			got = append(got, in.Key)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s session: /conflicts lists %v, want %v", tc.strategy, got, tc.want)
		}
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 2})

	var sess server.SessionInfo
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "counter", Program: counterSrc, Matcher: "rete",
	}, &sess, http.StatusCreated)
	if sess.Productions != 2 || sess.ID != "counter" {
		t.Fatalf("create response = %+v", sess)
	}

	var ch server.ApplyResult
	c.must("POST", "/sessions/counter/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 5.0)},
	}}, &ch, http.StatusOK)
	if ch.Applied != 1 || len(ch.Tags) != 1 || ch.WMSize != 1 || ch.ConflictSize != 1 {
		t.Fatalf("changes response = %+v", ch)
	}

	var run server.RunResult
	c.must("POST", "/sessions/counter/run", server.RunRequest{Cycles: 100}, &run, http.StatusOK)
	if !run.Halted || run.Fired != 6 || run.Cycles != 6 {
		t.Fatalf("run response = %+v", run)
	}

	var wm []server.WMEInfo
	c.must("GET", "/sessions/counter/wm?class=result", nil, &wm, http.StatusOK)
	if len(wm) != 1 || wm[0].Attrs["n"] != ops5.Num(5) {
		t.Fatalf("result WM = %+v", wm)
	}

	var insts []server.InstInfo
	c.must("GET", "/sessions/counter/conflicts", nil, &insts, http.StatusOK)

	var stats server.SessionInfo
	c.must("GET", "/sessions/counter", nil, &stats, http.StatusOK)
	if !stats.Halted || stats.Fired != 6 || stats.TotalChanges == 0 {
		t.Fatalf("stats = %+v", stats)
	}

	// Metrics must reflect the traffic.
	resp, err := http.Get(c.raw + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{"psmd_sessions 1", "psmd_firings_total 6", "psmd_wme_changes_per_sec"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	// statusz renders a table including the session.
	resp, err = http.Get(c.raw + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "counter") {
		t.Errorf("/statusz missing session row:\n%s", raw)
	}

	c.must("DELETE", "/sessions/counter", nil, nil, http.StatusNoContent)
	c.must("GET", "/sessions/counter", nil, nil, http.StatusNotFound)
}

func TestHTTPErrors(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 2})

	// Bad program.
	if got := c.do("POST", "/sessions", server.CreateSpec{Program: "(p broken"}, nil); got != http.StatusBadRequest {
		t.Errorf("bad program: status %d, want 400", got)
	}
	// Unknown matcher.
	if got := c.do("POST", "/sessions", server.CreateSpec{Program: counterSrc, Matcher: "quantum"}, nil); got != http.StatusBadRequest {
		t.Errorf("bad matcher: status %d, want 400", got)
	}
	// Unknown session.
	if got := c.do("POST", "/sessions/nope/run", server.RunRequest{}, nil); got != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", got)
	}
	// Duplicate ID.
	c.must("POST", "/sessions", server.CreateSpec{ID: "dup", Program: counterSrc}, nil, http.StatusCreated)
	if got := c.do("POST", "/sessions", server.CreateSpec{ID: "dup", Program: counterSrc}, nil); got != http.StatusConflict {
		t.Errorf("duplicate session: status %d, want 409", got)
	}
	// Bad retract tag.
	if got := c.do("POST", "/sessions/dup/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpRetract, Tag: 99},
	}}, nil); got != http.StatusBadRequest {
		t.Errorf("bad retract: status %d, want 400", got)
	}
	// WM quota: a batch that would exceed MaxWMEs is rejected whole.
	c.must("POST", "/sessions", server.CreateSpec{ID: "small", Program: counterSrc, Quota: server.Quota{MaxWMEs: 2}}, nil, http.StatusCreated)
	big := server.ChangesRequest{}
	for i := 0; i < 3; i++ {
		big.Changes = append(big.Changes, server.ChangeSpec{Op: server.OpAssert, Class: "c", Attrs: attrs("n", float64(i))})
	}
	if got := c.do("POST", "/sessions/small/changes", big, nil); got != http.StatusRequestEntityTooLarge {
		t.Errorf("quota: status %d, want 413", got)
	}
	var wm []server.WMEInfo
	c.must("GET", "/sessions/small/wm", nil, &wm, http.StatusOK)
	if len(wm) != 0 {
		t.Errorf("rejected batch partially applied: %d WMEs", len(wm))
	}
}

// TestAPIVersioningAndErrorEnvelope pins the HTTP surface: session
// routes exist under /v1 only, and every error body is the uniform
// {code, message, retryable} envelope.
func TestAPIVersioningAndErrorEnvelope(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	c.must("POST", "/sessions", server.CreateSpec{ID: "v", Program: counterSrc}, nil, http.StatusCreated)

	resp, err := http.Get(c.base + "/sessions/v")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/v1 route: status %d, want 200", resp.StatusCode)
	}

	// The unversioned spellings are gone.
	for _, probe := range []struct{ method, path string }{{"GET", "/sessions/v"}, {"POST", "/sessions"}} {
		req, err := http.NewRequest(probe.method, c.raw+probe.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.http.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("unversioned %s %s: status %d, want 404", probe.method, probe.path, r.StatusCode)
		}
	}

	// Errors carry the envelope with a stable code. Exercise three
	// classes: not found, conflict, and bad request.
	envelope := func(method, path string, body any) (int, server.ErrorResponse) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			buf, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.http.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var env server.ErrorResponse
		if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: error body is not the envelope: %v", method, path, err)
		}
		return r.StatusCode, env
	}

	if st, env := envelope("GET", "/sessions/nope", nil); st != http.StatusNotFound ||
		env.Code != "not_found" || env.Retryable || env.Message == "" {
		t.Errorf("not found: status %d, envelope %+v", st, env)
	}
	if st, env := envelope("POST", "/sessions", server.CreateSpec{ID: "v", Program: counterSrc}); st != http.StatusConflict ||
		env.Code != "already_exists" || env.Retryable {
		t.Errorf("conflict: status %d, envelope %+v", st, env)
	}
	if st, env := envelope("POST", "/sessions", server.CreateSpec{Program: "(p broken"}); st != http.StatusBadRequest ||
		env.Code != "bad_request" || env.Retryable {
		t.Errorf("bad request: status %d, envelope %+v", st, env)
	}
}

// TestRequestBodiesAreStrictAndBounded pins the decoding contract of the
// JSON request bodies: exactly one value, no unknown fields, only atoms
// as attribute values, at most 8 MiB — each violation answered in the
// error envelope.
func TestRequestBodiesAreStrictAndBounded(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	c.must("POST", "/sessions", server.CreateSpec{ID: "s", Program: counterSrc}, nil, http.StatusCreated)
	huge := `{"id":"huge","program":"` + strings.Repeat(";", 8<<20) + `"}`
	for _, tc := range []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"one value", "/sessions/s/run", `{"cycles":1}`, http.StatusOK, ""},
		{"trailing whitespace", "/sessions/s/run", "{\"cycles\":1}\n \t\n", http.StatusOK, ""},
		{"trailing garbage", "/sessions/s/changes", `{"changes":[]} trailing garbage`, http.StatusBadRequest, "bad_request"},
		{"second value", "/sessions/s/run", `{"cycles":1}{"cycles":2}`, http.StatusBadRequest, "bad_request"},
		{"stray bracket", "/sessions/s/run", `{"cycles":1}]`, http.StatusBadRequest, "bad_request"},
		{"unknown field", "/sessions/s/run", `{"cycles":1,"bogus":2}`, http.StatusBadRequest, "bad_request"},
		{"empty body", "/sessions/s/run", ``, http.StatusBadRequest, "bad_request"},
		{"object attribute", "/sessions/s/changes", `{"changes":[{"op":"assert","class":"c","attrs":{"v":{"x":1}}}]}`, http.StatusBadRequest, "bad_request"},
		{"array attribute", "/sessions/s/changes", `{"changes":[{"op":"assert","class":"c","attrs":{"v":[1]}}]}`, http.StatusBadRequest, "bad_request"},
		{"number out of range", "/sessions/s/changes", `{"changes":[{"op":"assert","class":"c","attrs":{"v":1e999}}]}`, http.StatusBadRequest, "bad_request"},
		{"stream line with a second value", "/sessions/s/stream", `{"class":"c"} {"class":"c"}`, http.StatusBadRequest, "bad_request"},
		{"body over the cap", "/sessions", huge, http.StatusRequestEntityTooLarge, "too_large"},
		{"garbage past the cap", "/sessions/s/run", `{"cycles":1}` + strings.Repeat(" ", 8<<20) + `x`, http.StatusRequestEntityTooLarge, "too_large"},
	} {
		resp, err := c.http.Post(c.base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var env server.ErrorResponse
		if resp.StatusCode >= 300 {
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Errorf("%s: error body is not the envelope: %v", tc.name, err)
			}
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || env.Code != tc.code {
			t.Errorf("%s: status %d code %q (%s), want %d %q", tc.name, resp.StatusCode, env.Code, env.Message, tc.status, tc.code)
		}
	}
	// Nothing a rejected body carried was applied.
	var wm []server.WMEInfo
	c.must("GET", "/sessions/s/wm", nil, &wm, http.StatusOK)
	if len(wm) != 0 {
		t.Errorf("rejected bodies left %d elements in working memory", len(wm))
	}
}

func TestRunQuotaTruncatesGracefully(t *testing.T) {
	_, c := newTestServer(t, server.Config{Shards: 1})
	c.must("POST", "/sessions", server.CreateSpec{
		ID: "capped", Program: counterSrc, Quota: server.Quota{MaxCyclesPerRequest: 3},
	}, nil, http.StatusCreated)
	c.must("POST", "/sessions/capped/changes", server.ChangesRequest{Changes: []server.ChangeSpec{
		{Op: server.OpAssert, Class: "counter", Attrs: attrs("n", 0.0, "limit", 100.0)},
	}}, nil, http.StatusOK)
	var run server.RunResult
	c.must("POST", "/sessions/capped/run", server.RunRequest{Cycles: 50}, &run, http.StatusOK)
	if run.Cycles != 3 || !run.LimitHit || run.Halted || run.Quiesced {
		t.Fatalf("quota-capped run = %+v, want 3 cycles with limit_hit", run)
	}
}

// scriptChanges converts a matchtest script batch into API changes.
func scriptChanges(batch []ops5.Change) []server.ChangeSpec {
	out := make([]server.ChangeSpec, len(batch))
	for i, ch := range batch {
		if ch.Kind == ops5.Insert {
			out[i] = server.ChangeSpec{Op: server.OpAssert, Class: ch.WME.Class(), Attrs: wmeAttrs(ch.WME)}
		} else {
			out[i] = server.ChangeSpec{Op: server.OpRetract, Tag: ch.WME.TimeTag}
		}
	}
	return out
}

// wmeAttrs returns a WME's fields as a change's attribute map.
func wmeAttrs(w *ops5.WME) map[string]ops5.Value {
	fields := w.Fields()
	attrs := make(map[string]ops5.Value, len(fields))
	for _, f := range fields {
		attrs[sym.Name(f.Attr)] = f.Val
	}
	return attrs
}

// attrs builds an attribute map from name/value pairs, ops5.NewWME
// style: strings are symbols, Go numbers are numbers.
func attrs(pairs ...any) map[string]ops5.Value {
	return wmeAttrs(ops5.NewWME("attrs", pairs...))
}

// programSource renders productions back to OPS5 source.
func programSource(prods []*ops5.Production) string {
	var b strings.Builder
	for _, p := range prods {
		b.WriteString(p.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestConcurrentSessionsMatchSerialReplay runs M independent sessions
// concurrently over HTTP — mixed matchers, each session driven by its
// own goroutine through a random change script and a recognize-act run
// — and asserts every session's conflict set, firing count and WM size
// are identical to a serial in-process replay of the same program and
// script. This extends the repository's cross-matcher property-test
// discipline to the service layer: the sharded concurrent server must
// be semantically invisible.
func TestConcurrentSessionsMatchSerialReplay(t *testing.T) {
	const sessions = 9
	matchers := []string{"rete", "parallel-rete", "naive"}

	_, c := newTestServer(t, server.Config{Shards: 4, QueueDepth: 256})

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			params := matchtest.DefaultGenParams()
			prods := matchtest.RandomProgram(rng, params)
			script := matchtest.RandomScript(rng, params, 30, 4)
			src := programSource(prods)
			matcher := matchers[i%len(matchers)]
			id := fmt.Sprintf("sess-%d", i)

			report := func(format string, args ...any) {
				errs <- fmt.Errorf("session %s (%s): %s", id, matcher, fmt.Sprintf(format, args...))
			}

			if got := c.do("POST", "/sessions", server.CreateSpec{ID: id, Program: src, Matcher: matcher}, nil); got != http.StatusCreated {
				report("create status %d", got)
				return
			}
			for bi, batch := range script.Batches {
				var ch server.ApplyResult
				if got := c.do("POST", "/sessions/"+id+"/changes",
					server.ChangesRequest{Changes: scriptChanges(batch)}, &ch); got != http.StatusOK {
					report("batch %d status %d", bi, got)
					return
				}
				// The server must assign exactly the script's insert tags:
				// same arrival order, same time-tag sequence.
				want := []int{}
				for _, cch := range batch {
					if cch.Kind == ops5.Insert {
						want = append(want, cch.WME.TimeTag)
					}
				}
				if fmt.Sprint(ch.Tags) != fmt.Sprint(want) {
					report("batch %d tags = %v, want %v", bi, ch.Tags, want)
					return
				}
			}
			var run server.RunResult
			if got := c.do("POST", "/sessions/"+id+"/run", server.RunRequest{Cycles: 500}, &run); got != http.StatusOK {
				report("run status %d", got)
				return
			}
			var insts []server.InstInfo
			if got := c.do("GET", "/sessions/"+id+"/conflicts", nil, &insts); got != http.StatusOK {
				report("conflicts status %d", got)
				return
			}
			var stats server.SessionInfo
			if got := c.do("GET", "/sessions/"+id, nil, &stats); got != http.StatusOK {
				report("stats status %d", got)
				return
			}

			// Serial in-process replay: same program, same batches, same
			// run, on the single-threaded reference matcher.
			ref, err := core.NewSystemFromProgram(&ops5.Program{Productions: prods}, core.Options{})
			if err != nil {
				report("replay construction: %v", err)
				return
			}
			// Apply the original script structs: Rete identifies deleted
			// WMEs by pointer, so insert and delete of one element must
			// share the struct (the HTTP path re-resolves retract tags
			// against the session's own working memory instead).
			for _, batch := range script.Batches {
				ref.ApplyChanges(batch)
			}
			ref.MaxCycles = 500
			if _, err := ref.Run(); err != nil {
				report("replay run: %v", err)
				return
			}

			gotKeys := make([]string, len(insts))
			for j, inst := range insts {
				gotKeys[j] = inst.Key
			}
			wantKeys := []string{}
			for _, inst := range ref.CS.Instantiations() {
				wantKeys = append(wantKeys, inst.Key())
			}
			sort.Strings(gotKeys)
			sort.Strings(wantKeys)
			if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
				report("conflict set diverged:\n%s", matchtest.Diff(wantKeys, gotKeys))
				return
			}
			if stats.Fired != ref.Fired || stats.WMSize != ref.WM.Size() || run.Halted != ref.Halted {
				report("stats diverged: fired %d/%d, wm %d/%d, halted %v/%v",
					stats.Fired, ref.Fired, stats.WMSize, ref.WM.Size(), run.Halted, ref.Halted)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// contentKey identifies an instantiation by production plus the matched
// WMEs' contents (tags stripped): the time-tag-free identity that is
// invariant under insert reordering.
func contentKey(production string, wmes []string) string {
	sort.Strings(wmes)
	return production + "::" + strings.Join(wmes, "|")
}

// wmeInfoContent renders a reported WME's content canonically.
func wmeInfoContent(w server.WMEInfo) string {
	return attrsContent(w.Class, w.Attrs)
}

// wmeContent renders an in-process WME's content in the same form.
func wmeContent(w *ops5.WME) string {
	return attrsContent(w.Class(), wmeAttrs(w))
}

func attrsContent(class string, attrs map[string]ops5.Value) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(class)
	for _, k := range keys {
		b.WriteString(" ^" + k + " " + attrs[k].String())
	}
	return b.String()
}

// TestConcurrentPostersOneSession hammers a single session with K
// concurrent posters submitting insert-only batches. Arrival order (and
// so time tags) is nondeterministic, but the multiset of instantiation
// contents must equal a serial replay's: the conflict set depends only
// on what was asserted, never on how the concurrent requests
// interleaved.
func TestConcurrentPostersOneSession(t *testing.T) {
	const posters = 4
	const batches = 20

	rng := rand.New(rand.NewSource(7))
	params := matchtest.DefaultGenParams()
	prods := matchtest.RandomProgram(rng, params)
	src := programSource(prods)

	// Pre-generate each poster's insert-only batches.
	scripts := make([][][]*ops5.WME, posters)
	for p := range scripts {
		scripts[p] = make([][]*ops5.WME, batches)
		for b := range scripts[p] {
			n := 1 + rng.Intn(3)
			for k := 0; k < n; k++ {
				scripts[p][b] = append(scripts[p][b], matchtest.RandomWME(rng, params))
			}
		}
	}

	_, c := newTestServer(t, server.Config{Shards: 2, QueueDepth: 1024})
	c.must("POST", "/sessions", server.CreateSpec{ID: "shared", Program: src}, nil, http.StatusCreated)

	var wg sync.WaitGroup
	errs := make(chan error, posters)
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b, wmes := range scripts[p] {
				changes := make([]server.ChangeSpec, len(wmes))
				for i, w := range wmes {
					changes[i] = server.ChangeSpec{Op: server.OpAssert, Class: w.Class(), Attrs: wmeAttrs(w)}
				}
				if got := c.do("POST", "/sessions/shared/changes",
					server.ChangesRequest{Changes: changes}, nil); got != http.StatusOK {
					errs <- fmt.Errorf("poster %d batch %d: status %d", p, b, got)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var insts []server.InstInfo
	c.must("GET", "/sessions/shared/conflicts", nil, &insts, http.StatusOK)
	gotKeys := make([]string, len(insts))
	for i, inst := range insts {
		wmes := make([]string, len(inst.WMEs))
		for j, w := range inst.WMEs {
			wmes[j] = wmeInfoContent(w)
		}
		gotKeys[i] = contentKey(inst.Production, wmes)
	}

	// Serial replay: all posters' batches in deterministic order.
	ref, err := core.NewSystemFromProgram(&ops5.Program{Productions: prods}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for p := range scripts {
		for _, wmes := range scripts[p] {
			batch := make([]ops5.Change, len(wmes))
			for i, w := range wmes {
				cw := w.Clone()
				batch[i] = ops5.Change{Kind: ops5.Insert, WME: cw}
			}
			ref.ApplyChanges(batch)
		}
	}
	wantKeys := []string{}
	for _, inst := range ref.CS.Instantiations() {
		wmes := []string{}
		for _, w := range inst.WMEs {
			if w != nil {
				wmes = append(wmes, wmeContent(w))
			}
		}
		wantKeys = append(wantKeys, contentKey(inst.Production.Name, wmes))
	}
	sort.Strings(gotKeys)
	sort.Strings(wantKeys)
	if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
		t.Fatalf("conflict-set contents diverged under concurrent posting:\n%s",
			matchtest.Diff(wantKeys, gotKeys))
	}
}

// TestDirectAPIRunUnboundedDeadline drives the Go-level API: a session
// with a never-quiescing program and no cycle quota must stop at the
// context deadline with 504-style semantics.
func TestDirectAPIRunDeadline(t *testing.T) {
	srv := server.New(server.Config{Shards: 1})
	defer srv.Close()
	ctx := context.Background()
	_, err := srv.CreateSession(ctx, server.CreateSpec{
		ID:      "loop",
		Program: `(p loop (c ^n <x>) --> (make c ^n <x>))`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply(ctx, "loop", []server.ChangeSpec{
		{Op: server.OpAssert, Class: "c", Attrs: map[string]ops5.Value{"n": ops5.Num(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 50*1000*1000) // 50ms
	defer cancel()
	_, err = srv.RunCycles(dctx, "loop", 0)
	if err != context.DeadlineExceeded {
		t.Fatalf("unbounded run err = %v, want DeadlineExceeded", err)
	}
	// The session survives and reports consistent state.
	info, err := srv.SessionStats(ctx, "loop")
	if err != nil || info.Cycles == 0 {
		t.Fatalf("post-deadline stats = %+v, %v", info, err)
	}
}
