package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// carvePack joins items and reacts to one card's transactions, so a
// batch's asserts reach the conflict set and a stream's events fire.
const carvePack = `
(p pair
    (item ^k <k> ^id <a>)
    (item ^k <k> ^id > <a>)
  -->
    (make pair ^k <k> ^first <a>))

(p watch
    (txn ^card c0 ^id <i> ^amount <m>)
  -->
    (make alert ^id <i> ^amount <m>))
`

// TestCarvedElementReplies drives the paths where an element is carved
// from working memory before the batch that inserts it: a /changes
// batch that retracts elements it asserts itself, by their predicted
// tags, and a /stream request of two batches whose second expires the
// first's events, its facts decoded into a field buffer the second batch
// reuses. Every reply, and the /wm and /conflicts listings after each
// request, must read byte for byte what they read when every element
// and field list was its own heap object; the digests were recorded
// then.
func TestCarvedElementReplies(t *testing.T) {
	srv := New(Config{Shards: 1})
	defer srv.Close()
	h := srv.Handler()
	serve := func(method, path, body string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, APIVersion+path, strings.NewReader(body)))
		if rec.Code >= 300 {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	serve("POST", "/sessions", `{"id":"carve","program":`+jsonString(carvePack)+`}`)

	var events []string
	for i := 0; i < 300; i++ {
		ts := 1 // the first batch of 256, then a jump that expires it
		if i >= 256 {
			ts = 40
		}
		events = append(events, fmt.Sprintf(`{"class":"txn","attrs":{"card":"c%d","id":%d,"amount":%d},"ts":%d,"ttl":%d}`,
			i%5, i, (i*37)%500, ts, 1+i%4))
	}
	for _, step := range []struct {
		method, path, body string
		want               string // the reply's digest: its SHA-256's first 8 bytes
	}{
		// Tags 1-6; 1 and 4 are retracted before they are ever committed.
		{"POST", "/sessions/carve/changes", `{"changes":[` +
			`{"op":"assert","class":"item","attrs":{"k":1,"id":1}},` +
			`{"op":"assert","class":"item","attrs":{"k":1,"id":2}},` +
			`{"op":"retract","tag":1},` +
			`{"op":"assert","class":"item","attrs":{"k":1,"id":3}},` +
			`{"op":"assert","class":"item","attrs":{"k":1,"id":4,"id":5}},` +
			`{"op":"retract","tag":4},` +
			`{"op":"assert","class":"item","attrs":{"k":2,"id":6}},` +
			`{"op":"assert","class":"item","attrs":{"id":7,"k":2}}]}`, "32ec593316948f57"},
		{"GET", "/sessions/carve/wm", "", "3392454b8f83eaff"},
		{"GET", "/sessions/carve/conflicts", "", "be9573b09712bc7f"},
		{"POST", "/sessions/carve/run", `{"cycles":0}`, "bf1297e510bc3a5b"},
		{"POST", "/sessions/carve/stream", strings.Join(events, "\n"), "7e5ac88b0df434e5"},
		{"GET", "/sessions/carve/wm", "", "318144e384e674ac"},
		{"GET", "/sessions/carve/conflicts", "", "821cbe1478bad4f0"},
	} {
		got := serve(step.method, step.path, step.body)
		sum := sha256.Sum256([]byte(got))
		if d := hex.EncodeToString(sum[:8]); d != step.want {
			t.Errorf("%s %s: reply digest %s, want %s; reply:\n%s", step.method, step.path, d, step.want, got)
		}
	}
}
