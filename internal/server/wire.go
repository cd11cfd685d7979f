package server

// The wire codec of the three hot routes. POST .../changes, .../run and
// .../stream decode their bodies with the single-pass readers below
// instead of encoding/json's reflection, and their replies (ApplyResult,
// RunResult, StreamResult) are appended into pooled buffers. The
// contract is decodeStrict's: the same bodies are accepted, into the same
// values, and the replies are json.Marshal's bytes plus a newline
// (FuzzWireDecode and TestWireEncodeMatchesMarshal hold both). The one
// permitted difference is that a key naming a field only under
// non-ASCII case folding ("claſs" for "class") is an unknown field here.
// Every other body, and every other reply, stays on encoding/json.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

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
	if d.open("server.ChangesRequest") {
		for n := 0; ; n++ {
			key, ok := d.member(n)
			if !ok {
				break
			}
			if fieldIs(key, "changes") {
				d.changes(&req.Changes)
			} else {
				d.fail(unknownField(key))
			}
		}
	}
	return d.close()
}

// decodeRun decodes a /run body.
func decodeRun(data []byte, req *RunRequest) error {
	d := wireDecoder{data: data}
	if d.open("server.RunRequest") {
		for n := 0; ; n++ {
			key, ok := d.member(n)
			if !ok {
				break
			}
			if !fieldIs(key, "cycles") {
				d.fail(unknownField(key))
			} else if v, ok := d.integer("RunRequest.cycles", "int", strconv.IntSize); ok {
				req.Cycles = int(v)
			}
		}
	}
	return d.close()
}

// decodeEvent decodes one /stream line.
func decodeEvent(data []byte, ev *EventSpec) error {
	d := wireDecoder{data: data}
	if d.open("server.EventSpec") {
		for n := 0; ; n++ {
			key, ok := d.member(n)
			if !ok {
				break
			}
			switch {
			case fieldIs(key, "class"):
				d.name("EventSpec.class", &ev.Class)
			case fieldIs(key, "attrs"):
				d.attrs("EventSpec.attrs", &ev.Attrs)
			case fieldIs(key, "ts"):
				if v, ok := d.integer("EventSpec.ts", "int64", 64); ok {
					ev.TS = v
				}
			case fieldIs(key, "ttl"):
				if v, ok := d.integer("EventSpec.ttl", "int", strconv.IntSize); ok {
					ev.TTL = int(v)
				}
			default:
				d.fail(unknownField(key))
			}
		}
	}
	return d.close()
}

// wireDecoder reads one JSON value from data in a single pass,
// validating as it goes. Its readers are entered at the first byte of
// their value and leave off just past it. The first error sticks: every
// later reader is a no-op, and member and element report no more.
type wireDecoder struct {
	data []byte
	off  int
	err  error
}

// fail records err unless an error is already recorded.
func (d *wireDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// open starts the top-level value of the struct type typ and reports
// whether it is an object, with d past its brace. A json.Decoder's io.EOF
// for a body holding no value is recorded here, and so is null, which
// leaves the struct as it is.
func (d *wireDecoder) open(typ string) bool {
	d.ws()
	switch {
	case d.off == len(d.data):
		d.fail(io.EOF)
	case d.data[d.off] == 'n':
		d.literal("null")
	case d.data[d.off] == '{':
		d.off++
		return true
	default:
		d.mismatch("", typ)
	}
	return false
}

// close ends the top-level value, which nothing but whitespace may
// follow, and returns the decoding error.
func (d *wireDecoder) close() error {
	if d.ws(); d.err == nil && d.off < len(d.data) {
		d.fail(errors.New("unexpected data after the JSON value"))
	}
	return d.err
}

// ws skips JSON whitespace.
func (d *wireDecoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// next skips whitespace and returns the byte there; 0 at the end of the
// data, which is an error, or after one.
func (d *wireDecoder) next() byte {
	if d.ws(); d.err != nil || d.off == len(d.data) {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	return d.data[d.off]
}

// syntaxError records a syntax error at data[i], or io.ErrUnexpectedEOF
// at the end of the data; context says what was wanted there.
func (d *wireDecoder) syntaxError(i int, context string) {
	if i >= len(d.data) {
		d.fail(io.ErrUnexpectedEOF)
		return
	}
	d.fail(fmt.Errorf("invalid character %q %s", rune(d.data[i]), context))
}

// mismatch records a value of the wrong JSON kind for a field of Go type
// typ, or for the top-level value when field is "".
func (d *wireDecoder) mismatch(field, typ string) {
	var kind string
	switch c := d.data[d.off]; {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || isDigit(c):
		kind = "number"
	default:
		d.syntaxError(d.off, "looking for beginning of value")
		return
	}
	if field == "" {
		d.fail(fmt.Errorf("json: cannot unmarshal %s into Go value of type %s", kind, typ))
		return
	}
	d.fail(fmt.Errorf("json: cannot unmarshal %s into Go struct field %s of type %s", kind, field, typ))
}

// unknownField is decodeStrict's error for a key that names no field.
func unknownField(key []byte) error { return fmt.Errorf("json: unknown field %q", key) }

// fieldIs reports whether an object key names the field whose JSON name
// is name (lower case), matching ASCII letters in either case as
// encoding/json does.
func fieldIs(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// member advances to member n (from 0) of the object being read and
// returns its key, with d at the member's value. ok is false past the
// closing brace and after an error.
func (d *wireDecoder) member(n int) (key []byte, ok bool) {
	c := d.next()
	if c == '}' {
		d.off++
		return nil, false
	}
	if n > 0 {
		if c != ',' {
			d.syntaxError(d.off, "after object key:value pair")
			return nil, false
		}
		d.off++
		c = d.next()
	}
	if c != '"' {
		d.syntaxError(d.off, "looking for beginning of object key string")
		return nil, false
	}
	key = d.text()
	if d.next() != ':' {
		d.syntaxError(d.off, "after object key")
		return nil, false
	}
	d.off++
	d.next()
	return key, d.err == nil
}

// element advances to element i (from 0) of the array being read, with d
// at the element. It reports false past the closing bracket and after an
// error.
func (d *wireDecoder) element(i int) bool {
	c := d.next()
	if c == ']' {
		d.off++
		return false
	}
	if i > 0 {
		if c != ',' {
			d.syntaxError(d.off, "after array element")
			return false
		}
		d.off++
		d.next()
	}
	return d.err == nil
}

// literal reads the literal lit (true, false or null).
func (d *wireDecoder) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if d.off+i == len(d.data) || d.data[d.off+i] != lit[i] {
			d.syntaxError(d.off+i, "in literal "+lit)
			return
		}
	}
	d.off += len(lit)
}

// str reads a string and returns its token, quotes included. plain
// reports that the content is its own bytes: no escapes, valid UTF-8.
func (d *wireDecoder) str() (raw []byte, plain bool) {
	start, ascii := d.off, true
	plain = true
	for i := d.off + 1; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			raw = d.data[start:d.off]
			if plain && !ascii {
				plain = utf8.Valid(raw[1 : len(raw)-1])
			}
			return raw, plain
		case c == '\\':
			plain = false
			switch {
			case i+1 == len(d.data):
				d.fail(io.ErrUnexpectedEOF)
				return nil, false
			case strings.IndexByte(`"\/bfnrt`, d.data[i+1]) >= 0:
				i += 2
			case d.data[i+1] == 'u':
				for j := i + 2; j < i+6; j++ {
					if j == len(d.data) || !isHex(d.data[j]) {
						d.syntaxError(j, `in \u hexadecimal character escape`)
						return nil, false
					}
				}
				i += 6
			default:
				d.syntaxError(i+1, "in string escape code")
				return nil, false
			}
		case c < 0x20:
			d.syntaxError(i, "in string literal")
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	d.fail(io.ErrUnexpectedEOF)
	return nil, false
}

// text reads a string and returns its decoded bytes: a plain string's
// are data's own, any other is unquoted by encoding/json.
func (d *wireDecoder) text() []byte {
	raw, plain := d.str()
	if d.err != nil {
		return nil
	}
	if plain {
		return raw[1 : len(raw)-1]
	}
	var s string
	d.fail(json.Unmarshal(raw, &s))
	return []byte(s)
}

// number reads a number and returns its bytes.
func (d *wireDecoder) number() []byte {
	start, i := d.off, d.off
	digits := func() bool {
		if i == len(d.data) || !isDigit(d.data[i]) {
			d.syntaxError(i, "in numeric literal")
			return false
		}
		for i < len(d.data) && isDigit(d.data[i]) {
			i++
		}
		return true
	}
	if d.data[i] == '-' {
		i++
	}
	if i < len(d.data) && d.data[i] == '0' {
		i++
	} else if !digits() {
		return nil
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if !digits() {
			return nil
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	d.off = i
	return d.data[start:i]
}

// nameOf returns b as a string: the symbol table's own copy when b is an
// interned name (a class or attribute the program mentions), otherwise
// a copy. Nothing is interned for a request that may yet be rejected.
func nameOf(b []byte) string {
	if id, ok := sym.LookupBytes(b); ok {
		return sym.Name(id)
	}
	return string(b)
}

// symOf returns the symbol value spelled b, interning it on first sight.
func symOf(b []byte) ops5.Value {
	if id, ok := sym.LookupBytes(b); ok {
		return ops5.SymID(id)
	}
	return ops5.Sym(string(b))
}

// name reads a string field; null leaves it as it is.
func (d *wireDecoder) name(field string, dst *string) {
	switch d.data[d.off] {
	case 'n':
		d.literal("null")
	case '"':
		if b := d.text(); d.err == nil {
			*dst = nameOf(b)
		}
	default:
		d.mismatch(field, "string")
	}
}

// op reads ChangeSpec.op; null leaves it as it is.
func (d *wireDecoder) op(dst *ChangeOp) {
	switch d.data[d.off] {
	case 'n':
		d.literal("null")
	case '"':
		switch b := d.text(); {
		case d.err != nil:
		case string(b) == string(OpAssert):
			*dst = OpAssert
		case string(b) == string(OpRetract):
			*dst = OpRetract
		default:
			*dst = ChangeOp(b)
		}
	default:
		d.mismatch("ChangesRequest.changes.op", "server.ChangeOp")
	}
}

// integer reads an integer field of Go type typ, bits wide. ok is false
// for null, which leaves the field as it is, and on error: a fraction,
// an exponent or a value out of range is one, as in encoding/json.
func (d *wireDecoder) integer(field, typ string, bits int) (n int64, ok bool) {
	switch c := d.data[d.off]; {
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		tok := d.number()
		if d.err != nil {
			return 0, false
		}
		n, err := strconv.ParseInt(string(tok), 10, bits)
		if err != nil {
			d.fail(fmt.Errorf("json: cannot unmarshal number %s into Go struct field %s of type %s", tok, field, typ))
			return 0, false
		}
		return n, true
	default:
		d.mismatch(field, typ)
	}
	return 0, false
}

// atom reads one attribute value as ops5.Value.UnmarshalJSON does:
// strings and true/false are symbols, numbers float64, null is nil, and
// an object or array is refused. UnmarshalJSON itself reads the numbers
// and the strings that are not plain, and words the refusal.
func (d *wireDecoder) atom() (v ops5.Value) {
	start := d.off
	switch c := d.data[d.off]; c {
	case '"':
		raw, plain := d.str()
		switch {
		case d.err != nil:
		case plain:
			v = symOf(raw[1 : len(raw)-1])
		default:
			d.fail(v.UnmarshalJSON(raw))
		}
	case 't', 'f':
		lit := "true"
		if c == 'f' {
			lit = "false"
		}
		if d.literal(lit); d.err == nil {
			v = symOf(d.data[start:d.off])
		}
	case 'n':
		d.literal("null")
	case '{', '[':
		d.fail(v.UnmarshalJSON(d.data[start : start+1]))
	default:
		if tok := d.number(); d.err == nil {
			d.fail(v.UnmarshalJSON(tok))
		}
	}
	return v
}

// attrs reads an attribute map. An object is merged into the map (a
// repeated "attrs" key adds to the first one's map); null clears it.
func (d *wireDecoder) attrs(field string, dst *map[string]ops5.Value) {
	switch d.data[d.off] {
	case 'n':
		*dst = nil
		d.literal("null")
	case '{':
		d.off++
		if *dst == nil {
			*dst = make(map[string]ops5.Value)
		}
		for n := 0; ; n++ {
			key, ok := d.member(n)
			if !ok {
				return
			}
			if v := d.atom(); d.err == nil {
				(*dst)[nameOf(key)] = v
			}
		}
	default:
		d.mismatch(field, "map[string]ops5.Value")
	}
}

// changes reads ChangesRequest.changes the way encoding/json fills a
// slice: element i is decoded into the slice's element i when there is
// one (so a repeated "changes" key merges into the first one's
// elements), the slice is cut to the array's length, an empty array is
// an empty slice and null is nil.
func (d *wireDecoder) changes(dst *[]ChangeSpec) {
	switch d.data[d.off] {
	case 'n':
		*dst = nil
		d.literal("null")
		return
	case '[':
		d.off++
	default:
		d.mismatch("ChangesRequest.changes", "[]server.ChangeSpec")
		return
	}
	list := *dst
	n := 0
	for ; d.element(n); n++ {
		if n == cap(list) {
			list = slices.Grow(list, 4) // most bodies carry a few changes
		}
		if n >= len(list) {
			list = list[:n+1]
		}
		d.change(&list[n])
	}
	switch {
	case d.err != nil:
	case n == 0:
		*dst = []ChangeSpec{}
	default:
		*dst = list[:n]
	}
}

// change reads one element of changes into c; null leaves it as it is.
func (d *wireDecoder) change(c *ChangeSpec) {
	switch d.data[d.off] {
	case 'n':
		d.literal("null")
	case '{':
		d.off++
		for n := 0; ; n++ {
			key, ok := d.member(n)
			if !ok {
				return
			}
			switch {
			case fieldIs(key, "op"):
				d.op(&c.Op)
			case fieldIs(key, "class"):
				d.name("ChangesRequest.changes.class", &c.Class)
			case fieldIs(key, "attrs"):
				d.attrs("ChangesRequest.changes.attrs", &c.Attrs)
			case fieldIs(key, "tag"):
				if v, ok := d.integer("ChangesRequest.changes.tag", "int", strconv.IntSize); ok {
					c.Tag = int(v)
				}
			default:
				d.fail(unknownField(key))
			}
		}
	default:
		d.mismatch("ChangesRequest.changes", "server.ChangeSpec")
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

// appendJSONString appends s as json.Marshal quotes a string: HTML
// characters, U+2028 and U+2029 escaped, and invalid UTF-8 replaced by
// U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
