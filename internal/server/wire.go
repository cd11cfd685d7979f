package server

// The wire codec of the three hot routes. POST .../changes, .../run and
// .../stream read their bodies with the recogniser below instead of
// encoding/json's reflection, and their replies (ApplyResult, RunResult,
// StreamResult) are appended into pooled buffers.
//
// The recogniser takes only plain bodies: one object whose keys are the
// exact lower-case field names, each at most once, whose strings are
// printable ASCII without a backslash, whose integers fit their field,
// and whose attribute values are such strings or numbers. Every body
// psmd's clients and benchmark send is plain. Any other body (null,
// true/false, escapes, non-ASCII, a case variant or repeat of a key,
// trailing data, a syntax error) is decoded by decodeStrict instead, so
// the accepted bodies and every error are encoding/json's own, and the
// decoded values mean what encoding/json's do (FuzzWireDecode). They
// differ in one representation: a plain attrs object is read straight
// into the unexported fields of ChangeSpec or EventSpec, the fact's own
// field list, with its attribute names interned as symbol values are,
// where decodeStrict fills the Attrs map. So a plain body refused after
// decoding may leave new names, as well as new values, in the symbol
// table. Every attrs object of one request (of a /stream request, of
// one dispatched batch) is read into one field buffer that grows
// geometrically: working memory copies each fact's fields into its
// class arena at insert, so nothing outlives the request in it. A plain
// string is appended to a reply as it is and any other goes through
// json.Marshal, so the replies are json.Marshal's bytes plus a newline
// (TestWireEncodeMatchesMarshal).
// Every other body, and every other reply, stays on encoding/json.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ops5"
	"repro/internal/sym"
)

// bufPool recycles request-body and reply buffers.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// maxPooledBuf is the largest buffer put back into bufPool; a bigger one
// (a bulk body near the 8 MiB cap) is left to the collector rather than
// pinned by the pool.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// readWire reads a request body of at most maxBodyBytes into a pooled
// buffer and decodes it with decode. The buffer is back in the pool when
// readWire returns, so decoding is over before the request is
// dispatched, and no decoded value points into the buffer: names are the
// symbol table's strings or copies.
func readWire(w http.ResponseWriter, r *http.Request, decode func([]byte) error) error {
	buf := getBuf()
	defer putBuf(buf)
	b := *buf
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, max(cap(b), 512))
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*buf = b
			return bodyError(err)
		}
	}
	*buf = b
	if err := decode(b); err != nil {
		return badReqf("bad request body: %v", err)
	}
	return nil
}

// writeWire answers 200 with v appended by enc into a pooled buffer.
func writeWire[T any](w http.ResponseWriter, v T, enc func([]byte, T) []byte) {
	buf := getBuf()
	*buf = enc(*buf, v)
	writeBody(w, http.StatusOK, *buf)
	putBuf(buf)
}

// decodeChanges decodes a /changes body.
func decodeChanges(data []byte, req *ChangesRequest) error {
	d := wireDecoder{data: data}
	readChanges(&d, req)
	return settle(&d, req)
}

// decodeRun decodes a /run body.
func decodeRun(data []byte, req *RunRequest) error {
	d := wireDecoder{data: data}
	readRun(&d, req)
	return settle(&d, req)
}

// decodeEvent decodes one /stream line, reading its attributes into
// fields, the stream's field buffer.
func decodeEvent(data []byte, ev *EventSpec, fields *[]ops5.Field) error {
	d := wireDecoder{data: data, buf: *fields}
	readEvent(&d, ev)
	*fields = d.buf
	return settle(&d, ev)
}

// settle ends a decoding into dst: nil when d read a plain body, and
// otherwise decodeStrict's verdict on the body, with dst overwritten by
// what decodeStrict decodes into a zero value. (The zero value is a
// fresh one, so that dst itself never escapes to encoding/json.)
func settle[T any](d *wireDecoder, dst *T) error {
	if d.plain() {
		return nil
	}
	v := new(T)
	err := decodeStrict(bytes.NewReader(d.data), v)
	*dst = *v
	return err
}

// readChanges, readRun and readEvent read a plain body of their shape.

func readChanges(d *wireDecoder, req *ChangesRequest) {
	var seen uint
	for n := 0; d.field(n, &seen, "changes") == 0; n++ {
		req.Changes = d.changes()
	}
}

func readRun(d *wireDecoder, req *RunRequest) {
	var seen uint
	for n := 0; d.field(n, &seen, "cycles") == 0; n++ {
		req.Cycles = int(d.integer(strconv.IntSize))
	}
}

func readEvent(d *wireDecoder, ev *EventSpec) {
	var seen uint
	for n := 0; ; n++ {
		switch d.field(n, &seen, "class", "attrs", "ts", "ttl") {
		case 0:
			ev.Class = nameOf(d.str())
		case 1:
			ev.fields = d.fields()
		case 2:
			ev.TS = d.integer(64)
		case 3:
			ev.TTL = int(d.integer(strconv.IntSize))
		default:
			return
		}
	}
}

// wireDecoder recognises a plain body in one pass. Each reader skips the
// whitespace before its value and leaves off just past it. A reader
// that meets anything a plain body does not hold sets bad; from then on
// every reader returns at once, and what was read is thrown away.
type wireDecoder struct {
	data []byte
	off  int
	bad  bool
	// buf is the request's field buffer (see fields).
	buf []ops5.Field
}

// plain reports whether the body read so far is plain and nothing but
// whitespace follows it.
func (d *wireDecoder) plain() bool {
	d.peek()
	return !d.bad && d.off == len(d.data)
}

// peek skips whitespace and returns the byte there; 0 at the end of the
// data and once bad.
func (d *wireDecoder) peek() byte {
	for ; !d.bad && d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect reads the byte c, or sets bad.
func (d *wireDecoder) expect(c byte) bool {
	if d.peek() != c {
		d.bad = true
		return false
	}
	d.off++
	return true
}

// member advances to member n (from 0) of an object, reading its opening
// brace when n is 0, and returns the member's key with d before its
// value. ok is false past the closing brace and once bad.
func (d *wireDecoder) member(n int) (key []byte, ok bool) {
	if n == 0 && !d.expect('{') {
		return nil, false
	}
	if d.peek() == '}' {
		d.off++
		return nil, false
	}
	if n > 0 && !d.expect(',') {
		return nil, false
	}
	key = d.str()
	return key, d.expect(':')
}

// field advances to member n of an object whose keys are names and
// returns its key's index in names, marking it in seen; -1 past the
// closing brace and once bad. A key that is not exactly one of names, or
// that seen already holds, sets bad.
func (d *wireDecoder) field(n int, seen *uint, names ...string) int {
	key, ok := d.member(n)
	if !ok {
		return -1
	}
	for i, name := range names {
		if string(key) == name && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			return i
		}
	}
	d.bad = true
	return -1
}

// str reads a plain string and returns its content, which is data's own
// bytes.
func (d *wireDecoder) str() []byte {
	if !d.expect('"') {
		return nil
	}
	for i := d.off; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.off:i]
			d.off = i + 1
			return s
		case c < 0x20 || c > 0x7e || c == '\\':
			d.bad = true
			return nil
		}
	}
	d.bad = true
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number reads a number of the JSON grammar and returns its bytes.
func (d *wireDecoder) number() []byte {
	if c := d.peek(); c != '-' && !isDigit(c) {
		d.bad = true
		return nil
	}
	start, i := d.off, d.off
	digits := func() {
		if i == len(d.data) || !isDigit(d.data[i]) {
			d.bad = true
		}
		for i < len(d.data) && isDigit(d.data[i]) {
			i++
		}
	}
	if d.data[i] == '-' {
		i++
	}
	if i < len(d.data) && d.data[i] == '0' {
		i++
	} else {
		digits()
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		digits()
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		digits()
	}
	d.off = i
	return d.data[start:i]
}

// integer reads an integer that fits in bits bits; a fraction or an
// exponent sets bad.
func (d *wireDecoder) integer(bits int) int64 {
	n, err := strconv.ParseInt(string(d.number()), 10, bits)
	if err != nil {
		d.bad = true
	}
	return n
}

// nameOf returns a class name as a string: the symbol table's own copy
// when b is interned (a class the program mentions), otherwise a copy.
// Class names are not interned here, but attribute names and symbol
// values are (internOf), so a request refused after decoding may leave
// new symbols behind.
func nameOf(b []byte) string {
	if id, ok := sym.LookupBytes(b); ok {
		return sym.Name(id)
	}
	return string(b)
}

// internOf returns the symbol spelled b, interning it on first sight.
func internOf(b []byte) sym.ID {
	if id, ok := sym.LookupBytes(b); ok {
		return id
	}
	return sym.Intern(string(b))
}

// atom reads an attribute value: a plain string is a symbol and a
// number is a float64, as ops5.Value.UnmarshalJSON reads them.
func (d *wireDecoder) atom() ops5.Value {
	if d.peek() == '"' {
		if b := d.str(); !d.bad {
			return ops5.SymID(internOf(b))
		}
		return ops5.Value{}
	}
	n, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.bad = true
	}
	return ops5.Num(n)
}

// fields reads an attribute object in document order onto the end of
// the request's field buffer, followed by one spare field, and returns
// them with the spare as their capacity: room for an event's ^__ttl.
// ops5.WME.Init sorts them and keeps the last of a repeated name, so
// they make the fact the Attrs map decodeStrict fills would make.
func (d *wireDecoder) fields() []ops5.Field {
	fs := d.buf
	start := len(fs)
	for n := 0; ; n++ {
		key, ok := d.member(n)
		if !ok {
			break
		}
		fs = appendField(fs, ops5.Field{Attr: internOf(key), Val: d.atom()})
	}
	end := len(fs)
	fs = appendField(fs, ops5.Field{})
	d.buf = fs
	return fs[start : end : end+1]
}

// fieldBufFirst is how many fields a request's field buffer first has
// room for.
const fieldBufFirst = 16

// appendField appends f to a field buffer, doubling it when it is full
// (by hand: slices.Grow allocates twice in a -race build).
func appendField(fs []ops5.Field, f ops5.Field) []ops5.Field {
	if len(fs) == cap(fs) {
		fs = append(make([]ops5.Field, 0, max(2*cap(fs), fieldBufFirst)), fs...)
	}
	return append(fs, f)
}

// changes reads ChangesRequest.changes; an empty array is an empty
// slice, as encoding/json makes it.
func (d *wireDecoder) changes() []ChangeSpec {
	list := []ChangeSpec{}
	if d.expect('['); d.peek() == ']' {
		d.off++
		return list
	}
	for !d.bad {
		if len(list) == cap(list) {
			list = slices.Grow(list, 4) // most bodies carry a few changes
		}
		list = list[:len(list)+1]
		d.change(&list[len(list)-1])
		if d.peek() != ',' {
			d.expect(']')
			break
		}
		d.off++
	}
	return list
}

// change reads one element of changes.
func (d *wireDecoder) change(c *ChangeSpec) {
	var seen uint
	for n := 0; ; n++ {
		switch d.field(n, &seen, "op", "class", "attrs", "tag") {
		case 0:
			c.Op = d.op()
		case 1:
			c.Class = nameOf(d.str())
		case 2:
			c.fields = d.fields()
		case 3:
			c.Tag = int(d.integer(strconv.IntSize))
		default:
			return
		}
	}
}

// op reads ChangeSpec.op, sharing the constants for the two known ops.
func (d *wireDecoder) op() ChangeOp {
	switch b := d.str(); string(b) {
	case string(OpAssert):
		return OpAssert
	case string(OpRetract):
		return OpRetract
	default:
		return ChangeOp(b)
	}
}

// The reply encoders append json.Marshal's bytes for their struct, plus
// the newline WriteJSON ends every reply with.

func appendApplyResult(b []byte, res ApplyResult) []byte {
	b = append(b, `{"applied":`...)
	b = strconv.AppendInt(b, int64(res.Applied), 10)
	if len(res.Tags) > 0 {
		b = append(b, `,"tags":[`...)
		for i, tag := range res.Tags {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(tag), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"wm_size":`...)
	b = strconv.AppendInt(b, int64(res.WMSize), 10)
	b = append(b, `,"conflict_size":`...)
	b = strconv.AppendInt(b, int64(res.ConflictSize), 10)
	return append(b, "}\n"...)
}

func appendRunResult(b []byte, res RunResult) []byte {
	b = append(b, `{"cycles":`...)
	b = strconv.AppendInt(b, int64(res.Cycles), 10)
	b = append(b, `,"fired":`...)
	b = strconv.AppendInt(b, int64(res.Fired), 10)
	b = append(b, `,"halted":`...)
	b = strconv.AppendBool(b, res.Halted)
	b = append(b, `,"quiesced":`...)
	b = strconv.AppendBool(b, res.Quiesced)
	b = append(b, `,"limit_hit":`...)
	b = strconv.AppendBool(b, res.LimitHit)
	b = append(b, `,"wm_size":`...)
	b = strconv.AppendInt(b, int64(res.WMSize), 10)
	b = append(b, `,"conflict_size":`...)
	b = strconv.AppendInt(b, int64(res.ConflictSize), 10)
	return append(b, "}\n"...)
}

func appendStreamResult(b []byte, res StreamResult) []byte {
	b = append(b, `{"session_id":`...)
	b = appendJSONString(b, res.SessionID)
	b = append(b, `,"events":`...)
	b = strconv.AppendInt(b, int64(res.Events), 10)
	b = append(b, `,"batches":`...)
	b = strconv.AppendInt(b, int64(res.Batches), 10)
	b = append(b, `,"fired":`...)
	b = strconv.AppendInt(b, int64(res.Fired), 10)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendInt(b, int64(res.Cycles), 10)
	b = append(b, `,"expired":`...)
	b = strconv.AppendInt(b, int64(res.Expired), 10)
	b = append(b, `,"clock":`...)
	b = strconv.AppendInt(b, res.Clock, 10)
	b = append(b, `,"wm_size":`...)
	b = strconv.AppendInt(b, int64(res.WMSize), 10)
	b = append(b, `,"conflict_size":`...)
	b = strconv.AppendInt(b, int64(res.ConflictSize), 10)
	return append(b, "}\n"...)
}

// appendJSONString appends s quoted as json.Marshal quotes it: a plain
// string (printable ASCII without '"', '\\' or the HTML characters
// json.Marshal escapes) as it is, and any other through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
