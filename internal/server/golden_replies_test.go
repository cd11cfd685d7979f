package server

// Byte-level golden of the /v1 replies. One fixed script runs through
// Handler(); every reply — status, the headers the API defines, body —
// is recorded with wall-clock values masked and compared against
// testdata/v1_replies.golden. The script speaks raw JSON only, so the
// file compiles against any commit's Go types: the golden was generated
// before the wire structs were folded into the structs that fill them
// and is the proof that the fold moved no byte. Regenerate (deliberately)
// with -update-golden.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
)

// goldenProgram has a positive join, a negated condition element, a
// counting loop, a streaming rule over TTL'd events, and initial
// working memory; goldenHalt adds a production that halts.
const goldenProgram = `
(p pair
    (item ^name <n> ^kind <k>)
    (item ^name <> <n> ^kind <k>)
  -->
    (make paired ^a <n>))

(p lonely
    (item ^name <n>)
  - (flag ^for <n>)
  -->
    (make note ^about <n>))

(p count
    (counter ^n <n> ^limit <l>)
  - (counter ^n <l>)
  -->
    (modify 1 ^n (compute <n> + 1)))

(p done
    (counter ^n <n> ^limit <n>)
  -->
    (make result ^n <n>))

(p seen
    (txn ^card <c> ^amount <a>)
  -->
    (make alert ^card <c> ^amount <a>))

(make counter ^n 0 ^limit 3)
`

const goldenHalt = goldenProgram + `(p stop (result ^n 3) --> (halt))`

const goldenSpin = `(p spin (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))`

// goldenMask blanks the values that depend on the wall clock or on
// goroutine timing: instants, durations, ratios of durations, and the
// task-duration histogram's counts.
var goldenMask = regexp.MustCompile(
	`"(start|[a-z_]*seconds|share|true_speedup|nominal_concurrency|loss_factor|count)":("[^"]*"|[^,}\]]+)`)

// goldenRecorder plays requests and accumulates the transcript.
type goldenRecorder struct {
	t   *testing.T
	out bytes.Buffer
	n   int
}

// call serves one request from h and records the reply.
func (g *goldenRecorder) call(h http.Handler, ctx context.Context, method, path, body string) {
	g.t.Helper()
	g.n++
	req := httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("X-Request-Id", fmt.Sprintf("golden-%02d", g.n))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	fmt.Fprintf(&g.out, "### %s %s\n", method, path)
	if body != "" {
		fmt.Fprintf(&g.out, ">>> %s\n", strings.ReplaceAll(body, "\n", "\n>>> "))
	}
	fmt.Fprintf(&g.out, "%d\n", rec.Code)
	for _, k := range []string{"Content-Type", "Retry-After", "X-Stream-Events-Applied", "X-Request-Id"} {
		if v := rec.Header().Get(k); v != "" {
			fmt.Fprintf(&g.out, "%s: %s\n", k, v)
		}
	}
	g.out.Write(goldenMask.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":"*"`)))
	if b := rec.Body.Bytes(); len(b) > 0 && b[len(b)-1] != '\n' {
		g.out.WriteByte('\n')
	}
}

// file records a durable file of the fixed script by content hash.
func (g *goldenRecorder) file(dir, name string) {
	g.t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		g.t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	fmt.Fprintf(&g.out, "### file %s\n%d bytes sha256 %s\n", name, len(raw), hex.EncodeToString(sum[:]))
}

func TestV1RepliesGolden(t *testing.T) {
	dataDir := t.TempDir()
	srv := New(Config{Shards: 1, QueueDepth: 1, DataDir: dataDir, Fsync: durable.FsyncNever, SnapshotEvery: -1})
	defer srv.Close() // idempotent: the script closes the server itself near its end
	h := srv.Handler()
	g := &goldenRecorder{t: t}
	bg := context.Background()
	do := func(method, path, body string) { t.Helper(); g.call(h, bg, method, path, body) }

	// Create, list, duplicate.
	do("GET", "/v1/sessions", "")
	do("POST", "/v1/sessions", `{"id":"g-rete","program":`+jsonString(goldenProgram)+`,"matcher":"rete","max_wmes":64,"max_cycles_per_request":50}`)
	do("GET", "/v1/sessions", "")
	do("POST", "/v1/sessions", `{"id":"g-prete","program":`+jsonString(goldenProgram)+`,"matcher":"parallel-rete","strategy":"mea","workers":2,"parallel_firings":2}`)
	do("POST", "/v1/sessions", `{"id":"g-rete","program":"(p x (a) --> (halt))"}`)

	// Changes: every attribute value kind, an in-batch retract, then a
	// retract of a committed element.
	changes := `{"changes":[` +
		`{"op":"assert","class":"item","attrs":{"name":"a","kind":"x"}},` +
		`{"op":"assert","class":"item","attrs":{"name":"b \"q\" <&> \u00e9\u2028\\","kind":"x","w":1.5,"big":1e21,"small":1e-7,"int":42,"neg":-3,"none":null,"yes":true,"no":false}},` +
		`{"op":"assert","class":"item","attrs":{"name":"c","kind":"y"}},` +
		`{"op":"assert","class":"flag","attrs":{"for":"c"}},` +
		`{"op":"assert","class":"scratch"},` +
		`{"op":"retract","tag":6}` +
		`]}`
	for _, id := range []string{"g-rete", "g-prete"} {
		do("POST", "/v1/sessions/"+id+"/changes", changes)
		do("GET", "/v1/sessions/"+id+"/conflicts", "")
		do("GET", "/v1/sessions/"+id+"/wm", "")
		do("GET", "/v1/sessions/"+id+"/wm?class=item", "")
		do("POST", "/v1/sessions/"+id+"/changes", `{"changes":[{"op":"retract","tag":5}]}`)
		do("POST", "/v1/sessions/"+id+"/run", `{"cycles":2}`)
		do("POST", "/v1/sessions/"+id+"/run", `{}`)
		do("GET", "/v1/sessions/"+id+"/conflicts", "")
		do("POST", "/v1/sessions/"+id+"/stream",
			`{"class":"txn","attrs":{"card":"c1","amount":100},"ts":1,"ttl":5}`+"\n\n"+
				`{"class":"txn","attrs":{"card":"c2","amount":2.5e3},"ts":2,"ttl":5}`+"\n"+
				`{"class":"txn","attrs":{"card":"c3"}}`+"\n")
		do("POST", "/v1/sessions/"+id+"/stream", `{"class":"txn","attrs":{"card":"c4","amount":1},"ts":30,"ttl":1}`)
		do("GET", "/v1/sessions/"+id+"/wm?class=txn", "")
		do("GET", "/v1/sessions/"+id, "")
		do("GET", "/v1/sessions/"+id+"/trace", "")
		do("GET", "/v1/sessions/"+id+"/profile", "")
		do("GET", "/v1/sessions/"+id+"/profile?top=1", "")
		do("GET", "/v1/sessions/"+id+"/loss", "")
		g.file(srv.sessionDir(id), "manifest.json")
		g.file(srv.sessionDir(id), "wal.log")
		do("POST", "/v1/sessions/"+id+"/snapshot", "")
	}

	// A snapshot file by content hash. Its facts carry at most one client
	// attribute: a fact's field order follows the iteration order of the
	// request's attribute map, so a multi-attribute fact does not snapshot
	// to the same bytes twice.
	do("POST", "/v1/sessions", `{"id":"g-snap","program":`+jsonString(goldenHalt)+`}`)
	do("POST", "/v1/sessions/g-snap/changes", `{"changes":[{"op":"assert","class":"item","attrs":{"name":"a"}},{"op":"assert","class":"item","attrs":{"name":7}},{"op":"assert","class":"flag","attrs":{"for":"z"}}]}`)
	do("POST", "/v1/sessions/g-snap/run", `{}`)
	do("POST", "/v1/sessions/g-snap/stream", `{"class":"txn","attrs":{"card":"c1"},"ts":3,"ttl":4}`)
	do("POST", "/v1/sessions/g-snap/snapshot", "")
	g.file(srv.sessionDir("g-snap"), "manifest.json")
	g.file(srv.sessionDir("g-snap"), "snapshot.json")
	do("DELETE", "/v1/sessions/g-snap", "")

	do("DELETE", "/v1/sessions/g-prete", "")
	do("GET", "/v1/sessions/g-prete/trace", "")

	// One error of each envelope code (internal excepted: nothing a
	// client can send reaches it).
	do("POST", "/v1/sessions", `{"program":"(p x (a) --> (halt))","bogus":1}`)
	do("POST", "/v1/sessions", `{"program":"(p broken"}`)
	do("POST", "/v1/sessions", `{"program":"(p x (a) --> (halt))","matcher":"quantum"}`)
	do("POST", "/v1/sessions/g-rete/changes", `{"changes":[{"op":"upsert","class":"a"}]}`)
	do("POST", "/v1/sessions/g-rete/changes", `{"changes":[{"op":"retract","tag":99}]}`)
	do("POST", "/v1/sessions/g-rete/changes", `{"changes":[{"op":"assert"}]}`)
	do("POST", "/v1/sessions/g-rete/run", `{"cycles":`)
	do("GET", "/v1/sessions/g-rete/profile?top=x", "")
	do("POST", "/v1/sessions/g-rete/stream", `{"class":"txn","attrs":{"card":"c9"}}`+"\n"+`{"class":"txn","bogus":1}`)
	do("POST", "/v1/sessions/g-rete/stream", `{"attrs":{"card":"c9"}}`)
	do("GET", "/v1/sessions/nope", "")
	do("POST", "/v1/sessions/nope/run", `{}`)
	do("POST", "/v1/sessions", `{"id":"g-small","program":"(p x (a) --> (halt))","max_wmes":2}`)
	do("POST", "/v1/sessions/g-small/changes", `{"changes":[{"op":"assert","class":"c"},{"op":"assert","class":"c"},{"op":"assert","class":"c"}]}`)
	do("DELETE", "/v1/sessions/g-small", "")

	// deadline: a self-sustaining program under a short request timeout.
	do("POST", "/v1/sessions", `{"id":"g-spin","program":`+jsonString(goldenSpin)+`}`)
	do("POST", "/v1/sessions/g-spin/changes", `{"changes":[{"op":"assert","class":"tick","attrs":{"n":0}}]}`)
	g.call(srv.HandlerWith(HandlerConfig{RequestTimeout: 50 * time.Millisecond}), bg, "POST", "/v1/sessions/g-spin/run", `{}`)
	do("DELETE", "/v1/sessions/g-spin", "")

	// busy and canceled: the one shard's turn is held, its one waiting
	// slot is taken by a request whose caller then gives up.
	release := blockShard(t, srv)
	ctx, cancel := context.WithCancel(bg)
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		g.call(h, ctx, "GET", "/v1/sessions/g-rete", "")
	}()
	waitFor(t, func() bool { return srv.shards[0].waiting.Load() == 1 })
	busy := &goldenRecorder{t: t, n: 100}
	busy.call(h, bg, "GET", "/v1/sessions/g-rete", "")
	cancel()
	<-queued
	g.out.Write(busy.out.Bytes())
	release()

	// unavailable: the server is closed.
	srv.Close()
	do("GET", "/v1/sessions/g-rete", "")

	got := g.out.Bytes()
	path := filepath.Join("testdata", "v1_replies.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o666); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("/v1 replies differ from the golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("/v1 replies differ from the golden in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// jsonString quotes s as a JSON string literal.
func jsonString(s string) string {
	return `"` + strings.NewReplacer("\\", `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`).Replace(s) + `"`
}
