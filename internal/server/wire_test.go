package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ops5"
	"repro/internal/sym"
	"repro/internal/workload"
)

// wireShapes pairs each hot-route decoder with the decodeStrict call it
// stands in for. Both return a pointer to the decoded request.
var wireShapes = []struct {
	name   string
	wire   func([]byte) (any, error)
	strict func([]byte) (any, error)
}{
	{
		"changes",
		func(b []byte) (any, error) { v := new(ChangesRequest); return v, decodeChanges(b, v) },
		func(b []byte) (any, error) { v := new(ChangesRequest); return v, decodeStrict(bytes.NewReader(b), v) },
	},
	{
		"run",
		func(b []byte) (any, error) { v := new(RunRequest); return v, decodeRun(b, v) },
		func(b []byte) (any, error) { v := new(RunRequest); return v, decodeStrict(bytes.NewReader(b), v) },
	},
	{
		"event",
		func(b []byte) (any, error) { v := new(EventSpec); return v, decodeEvent(b, v, new([]ops5.Field)) },
		func(b []byte) (any, error) { v := new(EventSpec); return v, decodeStrict(bytes.NewReader(b), v) },
	},
}

// changeMeaning and eventMeaning are what a decoded change or event
// means to the session that applies it: its scalars, and the fields of
// the fact that factFields and ops5.NewFact build from it, normalized.
type changeMeaning struct {
	Op     ChangeOp
	Class  string
	Tag    int
	Fields []ops5.Field
}

type eventMeaning struct {
	Class  string
	TS     int64
	TTL    int
	Fields []ops5.Field
}

// factOf returns the normalized fields of the fact built from decoded,
// attrs and extra, nil when there are none. It takes decoded over, as
// the fact would.
func factOf(decoded []ops5.Field, attrs map[string]ops5.Value, extra []ops5.Field) []ops5.Field {
	if fs := ops5.NewFact(sym.None, factFields(decoded, attrs, extra)).Fields(); len(fs) > 0 {
		return fs
	}
	return nil
}

// wireMeaning returns what the request v decoded into means: a run
// request's cycles; a changes request's list (nil or not, as decoded)
// of changeMeaning; an event's eventMeaning, its fields extended by its
// ttl as session.ingest extends them.
func wireMeaning(v any) any {
	switch v := v.(type) {
	case *RunRequest:
		return *v
	case *ChangesRequest:
		if v.Changes == nil {
			return []changeMeaning(nil)
		}
		out := []changeMeaning{}
		for _, c := range v.Changes {
			out = append(out, changeMeaning{c.Op, c.Class, c.Tag, factOf(c.fields, c.Attrs, nil)})
		}
		return out
	case *EventSpec:
		var ttl []ops5.Field
		if v.TTL > 0 {
			ttl = []ops5.Field{{Attr: ops5.TTLAttr, Val: ops5.Num(float64(v.TTL))}}
		}
		return eventMeaning{v.Class, v.TS, v.TTL, factOf(v.fields, v.Attrs, ttl)}
	}
	panic(fmt.Sprintf("wireMeaning: %T", v))
}

// checkWireDecode decodes data with every shape's wire decoder and with
// decodeStrict and fails unless both accept, into values that mean the
// same (wireMeaning), or both reject with the same error text. The two
// may differ in representation only: the wire decoder reads a plain
// attrs object into fields where decodeStrict fills Attrs. The wire
// decoder reads a copy that is scribbled over before the comparison, so
// a decoded value pointing into the body fails too.
func checkWireDecode(t *testing.T, data []byte) {
	t.Helper()
	for _, sh := range wireShapes {
		body := bytes.Clone(data)
		got, gotErr := sh.wire(body)
		for i := range body {
			body[i] = 'x'
		}
		want, wantErr := sh.strict(data)
		switch {
		case gotErr == nil && wantErr == nil:
			if g, w := wireMeaning(got), wireMeaning(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s %q: decoded\n %#v\nwant\n %#v", sh.name, data, g, w)
			}
		case gotErr == nil || wantErr == nil:
			t.Fatalf("%s %q: wire decoder error %v, decodeStrict error %v", sh.name, data, gotErr, wantErr)
		case gotErr.Error() != wantErr.Error():
			t.Fatalf("%s %q: wire decoder error %q, want decodeStrict's %q", sh.name, data, gotErr, wantErr)
		}
	}
}

// wireSeeds are the bodies every decoder comparison starts from: the
// golden script's, the chatter, bulk and fraud shapes, and the edge cases
// the wire decoder must get right.
var wireSeeds = []string{
	// The golden script's bodies.
	`{"changes":[{"op":"assert","class":"item","attrs":{"name":"a","kind":"x"}},{"op":"assert","class":"item","attrs":{"name":"b \"q\" <&> \u00e9\u2028\\","kind":"x","w":1.5,"big":1e21,"small":1e-7,"int":42,"neg":-3,"none":null,"yes":true,"no":false}},{"op":"retract","tag":6}]}`,
	`{"changes":[{"op":"retract","tag":5}]}`,
	`{"cycles":2}`, `{}`, `{"cycles":`,
	`{"class":"txn","attrs":{"card":"c1","amount":100},"ts":1,"ttl":5}`,
	`{"class":"txn","attrs":{"card":"c2","amount":2.5e3},"ts":2,"ttl":5}`,
	`{"class":"txn","bogus":1}`, `{"attrs":{"card":"c9"}}`,
	`{"changes":[{"op":"upsert","class":"a"}]}`, `{"changes":[{"op":"assert"}]}`,
	// chatter and bulk.
	`{"changes":[{"op":"retract","tag":17},{"op":"assert","class":"reading","attrs":{"sensor":"n3","value":57,"seq":1}}]}`,
	`{"changes":[{"op":"assert","class":"job","attrs":{"id":1,"station":"s3","kind":"k2","prio":4}},{"op":"assert","class":"part","attrs":{"job":1,"station":"s3","type":"t5","qty":12}},{"op":"retract","tag":3}]}`,
	// Edge cases.
	`null`, ` null `, `{"changes":null}`, `{"changes":[null]}`, `{"changes":[]}`,
	`{"changes":[{"tag":null,"op":null,"class":null,"attrs":null}]}`,
	`{"changes":[{"op":"assert","class":"a","class":"b","tag":1,"tag":2}]}`,
	`{"changes":[{"attrs":{"a":1},"attrs":{"b":2,"a":3}}]}`,
	`{"changes":[{"attrs":{"a":1},"attrs":null}]}`,
	`{"changes":[{"op":"assert","class":"a"},{"tag":2}],"changes":[{"tag":7}]}`,
	`{"changes":[{"class":"a"},{"class":"b"}],"changes":[{}],"changes":[{},{}]}`,
	`{"changes":[{"class":"a"}],"changes":[],"changes":[{}]}`,
	`{"cycles":1.0}`, `{"cycles":1e2}`, `{"cycles":-0}`, `{"cycles":9223372036854775807}`,
	`{"cycles":9223372036854775808}`, `{"cycles":"4"}`, `{"cycles":true}`, `{"cycles":01}`,
	`{"ts":-9223372036854775808,"ttl":-1}`, `{"ts":1.5}`,
	`{"class":"c","attrs":{"t":true,"f":false,"n":null,"z":-0,"e":1E+2,"x":0.5e-3}}`,
	`{"class":"c","attrs":{"v":{"x":1}}}`, `{"class":"c","attrs":{"v":[1]}}`, `{"class":"c","attrs":{"v":1e999}}`,
	`{"class":"c\u0041","attrs":{"k\n":"\ud800","\u00e9":"\/"}}`, "{\"class\":\"\xff\xfe\",\"attrs\":{\"\xc3\":\"\xe2\x80\"}}",
	`{"CLASS":"c","Attrs":{},"TTL":3,"Ts":1}`, `{"claſs":"c"}`, `{"\u0063lass":"c"}`,
	`{"class":"c"} {"class":"c"}`, `{"cycles":1}]`, `{"cycles":1}x`, "{\"cycles\":1}\n \t\r\n",
	``, ` `, `[]`, `"x"`, `3`, `true`, `{"cycles":1,}`, `{,}`, `{"cycles" 1}`, `{"cycles":tru}`,
	`{"class":"a\tb"}`, `{"class":"a\qb"}`, `{"class":"\u12"}`, `{"class":"abc`, `{"class":"c","attrs":{"v":-}}`,
	`{"class":"c","attrs":{"v":1.}}`, `{"class":"c","attrs":{"v":.5}}`, `{"class":"c","attrs":{"v":"x",}}`,
	// The edges of the plain subset: whitespace, a repeated attribute
	// key, the HTML characters and DEL, a repeated struct key.
	" {\t\"cycles\" :\r\n4 } ", `{"class":"c","attrs":{"k":"a","k":-0.5e+2}}`, `{"class":"<&>","attrs":{"k":"~\u007f"}}`,
	`{"changes":[{"op":"assert","class":"a","attrs":{"k":"v"}}],"changes":[]}`, `{"class":"c","ts":1,"ts":2}`,
	// An event's ttl overrides an attrs "__ttl"; a repeated attribute
	// key in one assert keeps its last value on either path.
	`{"class":"txn","attrs":{"__ttl":3,"card":"c1"},"ttl":9}`,
	`{"changes":[{"op":"assert","class":"a","attrs":{"k":1,"j":"x","k":"two","j":-1,"k":3}}]}`,
}

func TestWireDecodeMatchesDecodeStrict(t *testing.T) {
	for _, s := range wireSeeds {
		checkWireDecode(t, []byte(s))
	}
	for _, line := range bytes.Split(workload.NDJSON(workload.FraudEvents(workload.DefaultFraudParams()))[:4096], []byte("\n")) {
		checkWireDecode(t, line)
	}
}

// TestWireDecodeSemantics pins what the differential test only compares:
// the encoding/json rules the wire decoder reproduces.
func TestWireDecodeSemantics(t *testing.T) {
	var req ChangesRequest
	if err := decodeChanges([]byte(`{"changes":[{"op":"assert","class":"a","attrs":{"x":1},"attrs":{"y":"s","x":2}}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if want := (map[string]ops5.Value{"x": ops5.Num(2), "y": ops5.Sym("s")}); !reflect.DeepEqual(req.Changes[0].Attrs, want) {
		t.Errorf("repeated attrs: %v, want one merged map %v", req.Changes[0].Attrs, want)
	}
	req = ChangesRequest{}
	if err := decodeChanges([]byte(`{"changes":[{"op":"assert","class":"a"}],"changes":[{"tag":3}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if want := []ChangeSpec{{Op: OpAssert, Class: "a", Tag: 3}}; !reflect.DeepEqual(req.Changes, want) {
		t.Errorf("repeated changes: %+v, want the second merged into the first %+v", req.Changes, want)
	}
	var ev EventSpec
	if err := decodeEvent([]byte(`{"class":"c","attrs":{"t":true}}`), &ev, new([]ops5.Field)); err != nil || ev.Attrs["t"] != ops5.Sym("true") {
		t.Errorf("true: %v, %v; want the symbol true", ev.Attrs["t"], err)
	}
	// What a plain body asserts: the last value of a repeated attribute,
	// and an event's ttl over its attrs "__ttl".
	sess, err := New(Config{}).newSession(CreateSpec{Program: `(literalize c k __ttl)`}, false)
	if err != nil {
		t.Fatal(err)
	}
	ev = EventSpec{}
	if err := decodeEvent([]byte(`{"class":"c","attrs":{"k":1,"__ttl":3,"k":2},"ttl":9}`), &ev, new([]ops5.Field)); err != nil || ev.fields == nil {
		t.Fatalf("plain event: fields %v, error %v", ev.fields, err)
	}
	if _, err := sess.ingest(context.Background(), []EventSpec{ev}); err != nil {
		t.Fatal(err)
	}
	req = ChangesRequest{}
	if err := decodeChanges([]byte(`{"changes":[{"op":"assert","class":"c","attrs":{"k":"a","k":5}}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.apply(req.Changes); err != nil {
		t.Fatal(err)
	}
	facts := sess.sys.WM.OfClass("c")
	if len(facts) != 2 || facts[0].Get("k") != ops5.Num(2) || facts[0].Get("__ttl") != ops5.Num(9) || facts[1].Get("k") != ops5.Num(5) {
		t.Errorf("asserted %v, want k 2 and __ttl 9, then k 5", facts)
	}
	for _, bad := range []string{`{"cycles":1.0}`, `{"cycles":1e2}`, `{"cycles":99999999999999999999}`} {
		if err := decodeRun([]byte(bad), new(RunRequest)); err == nil {
			t.Errorf("%s: accepted, want a type error", bad)
		}
	}
	// The messages the golden replies carry.
	for _, tc := range []struct {
		body string
		dec  func([]byte) error
		want string
	}{
		{`{"class":"txn","bogus":1}`, func(b []byte) error { return decodeEvent(b, new(EventSpec), new([]ops5.Field)) }, `json: unknown field "bogus"`},
		{`{"cycles":`, func(b []byte) error { return decodeRun(b, new(RunRequest)) }, `unexpected EOF`},
		{``, func(b []byte) error { return decodeRun(b, new(RunRequest)) }, `EOF`},
	} {
		if err := tc.dec([]byte(tc.body)); err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %q", tc.body, err, tc.want)
		}
	}
}

// TestWireFastPathServesTraffic pins that the fallback to decodeStrict
// costs psmd's traffic nothing: every body shape psmbench's five
// workloads send (benchmark/loadgen's generators) and the fraud stream
// of internal/workload is plain, and a plain session ID, such as the
// stream workload's fr-N-M, is appended without json.Marshal.
func TestWireFastPathServesTraffic(t *testing.T) {
	plain := func(body []byte, read func(*wireDecoder)) {
		t.Helper()
		d := wireDecoder{data: body}
		if read(&d); !d.plain() {
			t.Errorf("%s: not plain, so it is decoded by decodeStrict", body)
		}
	}
	changes := func(d *wireDecoder) { readChanges(d, new(ChangesRequest)) }
	for _, body := range []string{
		// manners_rete: guests, then count, last-seat and context.
		`{"changes":[{"op":"assert","class":"guest","attrs":{"name":"guest1","sex":"m","hobby":"h2"}},{"op":"assert","class":"count","attrs":{"c":1}},{"op":"assert","class":"last-seat","attrs":{"seat":32}},{"op":"assert","class":"context","attrs":{"state":"start"}}]}`,
		// bulk_prete: the retracts of an earlier request, then arrivals.
		`{"changes":[{"op":"retract","tag":17},{"op":"assert","class":"job","attrs":{"id":1,"station":"s3","kind":"k2","prio":4}},{"op":"assert","class":"part","attrs":{"job":1,"station":"s3","type":"t5","qty":12}},{"op":"assert","class":"slot","attrs":{"job":1,"station":"s3","lane":"l0","cap":9}}]}`,
		// chatter_http and chatter_wal: the limits, then readings.
		`{"changes":[{"op":"assert","class":"limit","attrs":{"sensor":"n0","max":87}},{"op":"assert","class":"limit","attrs":{"sensor":"n1","max":80}}]}`,
		`{"changes":[{"op":"retract","tag":17},{"op":"assert","class":"reading","attrs":{"sensor":"n3","value":57,"seq":1}}]}`,
	} {
		plain([]byte(body), changes)
	}
	for _, body := range []string{`{}`, `{"cycles":4}`} {
		plain([]byte(body), func(d *wireDecoder) { readRun(d, new(RunRequest)) })
	}
	event := func(d *wireDecoder) { readEvent(d, new(EventSpec)) }
	plain([]byte(`{"class":"txn","attrs":{"card":"c17","amount":1204,"id":9},"ts":3,"ttl":20}`), event)
	for _, line := range bytes.Split(bytes.TrimSpace(workload.NDJSON(workload.FraudEvents(workload.DefaultFraudParams()))), []byte("\n")) {
		plain(line, event)
	}

	buf := make([]byte, 0, 512)
	res := StreamResult{SessionID: "fr-3-1", Events: 256, Batches: 1}
	if n := testing.AllocsPerRun(100, func() { buf = appendStreamResult(buf[:0], res) }); n != 0 {
		t.Errorf("appending a reply with session ID %q: %.0f allocations, want 0 (no json.Marshal)", res.SessionID, n)
	}
}

func FuzzWireDecode(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkWireDecode)
}

// wireStrings are session IDs that exercise json.Marshal's string
// escaping: HTML characters, the JavaScript line separators, control
// characters, invalid UTF-8 and multi-byte runes.
var wireStrings = []string{
	"", "s-000001", "chatter-17", `a"b\c`, "<script>&amp;</script>", "\u2028\u2029", "line\nbreak\ttab\r",
	"\x00\x01\x1f\x7f", "\b\f", "\xff\xfe", "\xe2\x80", "caf\u00e9", "\U0001F600", "/slash/",
}

// randomWireString builds a string from pieces of wireStrings and random
// bytes.
func randomWireString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(4); n >= 0; n-- {
		if rng.Intn(3) == 0 {
			b.WriteByte(byte(rng.Intn(256)))
		} else {
			b.WriteString(wireStrings[rng.Intn(len(wireStrings))])
		}
	}
	return b.String()
}

func TestWireEncodeMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// int64, so that the file compiles where int is 32 bits.
	n := func() int { return int([]int64{0, 1, -1, 7, 1 << 40, -1 << 62}[rng.Intn(6)]) + rng.Intn(1000) }
	check := func(name string, v any, got []byte) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s %+v:\n got %s\nwant %s", name, v, got, want)
		}
	}
	for _, id := range wireStrings {
		check("session id", StreamResult{SessionID: id}, appendStreamResult(nil, StreamResult{SessionID: id}))
	}
	for i := 0; i < 2000; i++ {
		var tags []int
		switch rng.Intn(3) {
		case 1:
			tags = []int{}
		case 2:
			for k := rng.Intn(5) + 1; k > 0; k-- {
				tags = append(tags, n())
			}
		}
		ar := ApplyResult{Applied: n(), Tags: tags, WMSize: n(), ConflictSize: n()}
		check("ApplyResult", ar, appendApplyResult(nil, ar))
		rr := RunResult{Cycles: n(), Fired: n(), Halted: rng.Intn(2) == 0, Quiesced: rng.Intn(2) == 0,
			LimitHit: rng.Intn(2) == 0, WMSize: n(), ConflictSize: n()}
		check("RunResult", rr, appendRunResult(nil, rr))
		sr := StreamResult{SessionID: randomWireString(rng), Events: n(), Batches: n(), Fired: n(), Cycles: n(),
			Expired: n(), Clock: int64(n()) << 20, WMSize: n(), ConflictSize: n()}
		check("StreamResult", sr, appendStreamResult(nil, sr))
	}
}

// TestWireBuffersStayBounded: a body buffer that grew past maxPooledBuf
// is not put back into the pool.
func TestWireBuffersStayBounded(t *testing.T) {
	big := make([]byte, 0, 2*maxPooledBuf)
	putBuf(&big)
	for i := 0; i < 4; i++ {
		if b := getBuf(); cap(*b) > maxPooledBuf {
			t.Fatalf("pool handed out a %d-byte buffer", cap(*b))
		}
	}
}
