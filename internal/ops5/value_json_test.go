package ops5

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// asAny is the mapping /v1 used before Value carried its own JSON form:
// values crossed the wire boxed in an `any`. Value's encoding must stay
// byte-identical to it.
func asAny(v Value) any {
	switch v.Kind {
	case SymValue:
		return v.SymName()
	case NumValue:
		return v.Num
	default:
		return nil
	}
}

// fromAny is the inverse mapping (decoded JSON -> Value).
func fromAny(x any) (Value, bool) {
	switch x := x.(type) {
	case nil:
		return Value{}, true
	case string:
		return Sym(x), true
	case float64:
		return Num(x), true
	case bool:
		return Sym(strconv.FormatBool(x)), true
	default:
		return Value{}, false
	}
}

// checkJSON asserts v encodes to encoding/json's bytes for the boxed
// value — alone and as a map element, where the encoder re-escapes what
// MarshalJSON returns — and decodes back to itself (a symbol that is not
// valid UTF-8 excepted: it encodes with U+FFFD either way).
func checkJSON(t *testing.T, v Value) bool {
	t.Helper()
	got, err := json.Marshal(v)
	want, werr := json.Marshal(asAny(v))
	if (err != nil) != (werr != nil) || !bytes.Equal(got, want) {
		t.Errorf("Marshal(%v) = %s, %v; boxed: %s, %v", v, got, err, want, werr)
		return false
	}
	if err != nil {
		return true
	}
	gotMap, _ := json.Marshal(map[string]Value{"k": v})
	wantMap, _ := json.Marshal(map[string]any{"k": asAny(v)})
	if !bytes.Equal(gotMap, wantMap) {
		t.Errorf("Marshal({k: %v}) = %s, boxed: %s", v, gotMap, wantMap)
		return false
	}
	var back Value
	if err := json.Unmarshal(got, &back); err != nil || (!back.Equal(v) && utf8.ValidString(v.SymName())) {
		t.Errorf("round trip of %v through %s = %v, %v", v, got, back, err)
		return false
	}
	return true
}

func TestValueJSONMatchesBoxedEncoding(t *testing.T) {
	for _, v := range []Value{
		{}, Sym(""), Sym("plain"), Sym(`q"uote\back/slash`), Sym("<&>"), Sym("tab\tnl\n\x01"),
		Sym("é  😀"), Sym("true"), Sym("null"), Sym("12"), Sym("bad\xffutf8"),
		Num(0), Num(math.Copysign(0, -1)), Num(42), Num(-3), Num(1.5), Num(1e21), Num(1e20),
		Num(1e-6), Num(1e-7), Num(123456789.125), Num(math.MaxFloat64), Num(math.SmallestNonzeroFloat64),
		Num(1 << 53), Num(math.Inf(1)), Num(math.NaN()),
	} {
		checkJSON(t, v)
	}
	if err := quick.Check(func(s string) bool { return checkJSON(t, Sym(s)) }, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(n float64) bool { return checkJSON(t, Num(n)) }, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(n int64) bool { return checkJSON(t, Num(float64(n))) }, nil); err != nil {
		t.Error(err)
	}
}

func TestValueJSONDecodesLikeBoxedDecoding(t *testing.T) {
	for _, lit := range []string{
		`null`, `true`, `false`, `""`, `"a"`, `"a\"b"`, `"é "`, `"😀"`, `"\ud83d"`,
		`"\/\b\f\n\r\t\\"`, `"é"`, `"<&>"`, ` "padded" `,
		`0`, `-0`, `42`, `-3`, `1.5`, `1e21`, `1E21`, `1e+2`, `2.5e3`, `1e-7`, `100`, `1.0`, `9007199254740993`,
		`1e999`, `-1e999`, `[1]`, `[]`, `{"a":1}`, `{}`,
	} {
		var boxed any
		want, ok := Value{}, false
		if err := json.Unmarshal([]byte(lit), &boxed); err == nil {
			want, ok = fromAny(boxed)
		}
		var got Value
		err := json.Unmarshal([]byte(lit), &got)
		if ok != (err == nil) || (ok && !got.Equal(want)) {
			t.Errorf("Unmarshal(%s) = %v, %v; boxed decoding gives %v (accepted %v)", lit, got, err, want, ok)
		}
		// The same literal as a map element, the shape the API decodes.
		var m map[string]Value
		merr := json.Unmarshal([]byte(`{"k":`+lit+`}`), &m)
		if ok != (merr == nil) || (ok && !m["k"].Equal(want)) {
			t.Errorf("Unmarshal({k: %s}) = %v, %v; want %v (accepted %v)", lit, m, merr, want, ok)
		}
	}
}
