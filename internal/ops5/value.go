// Package ops5 implements the OPS5 production-system language substrate:
// values, working-memory elements, condition elements, productions, a
// lexer/parser for the classic parenthesized syntax, and the basic
// matching semantics shared by every matcher in this repository.
//
// The dialect implemented here follows Forgy's OPS5 as described in the
// paper (Gupta, Forgy, Newell, Wedig, ISCA 1986) and in Brownston et al.,
// "Programming Expert Systems in OPS5": productions are
//
//	(p name
//	    (class ^attr value ^attr <var> ...)
//	   -(class ^attr <> 7)            ; negated condition element
//	  -->
//	    (make class ^attr <var>)
//	    (modify 2 ^attr value)
//	    (remove 1))
//
// Attribute tests support constants, variables, the predicates
// <>, <, >, <=, >=, =, disjunctions << a b c >> and conjunctions { ... }.
package ops5

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/sym"
)

// ValueKind discriminates the kinds of atomic OPS5 values.
type ValueKind uint8

// The kinds of atomic values that may appear in working memory.
const (
	// NilValue is the value of an attribute that was never set.
	NilValue ValueKind = iota
	// SymValue is a symbolic atom such as yes, goal or block-17.
	SymValue
	// NumValue is a numeric atom. OPS5 numbers are represented as
	// float64; integer literals round-trip exactly.
	NumValue
)

// Value is an atomic OPS5 value: nil, a symbol, or a number. Symbols are
// held as interned IDs (internal/sym), so a Value is 16 pointer-free
// bytes, equality is an integer compare, and hashing never touches
// string bytes. The zero Value is the nil value.
type Value struct {
	Kind ValueKind
	sym  sym.ID
	Num  float64
}

// Sym returns a symbolic value, interning s in the global symbol table.
func Sym(s string) Value { return Value{Kind: SymValue, sym: sym.Intern(s)} }

// SymID returns a symbolic value holding an already-interned ID.
func SymID(id sym.ID) Value { return Value{Kind: SymValue, sym: id} }

// Num returns a numeric value.
func Num(n float64) Value { return Value{Kind: NumValue, Num: n} }

// Nil reports whether v is the nil (unset) value.
func (v Value) Nil() bool { return v.Kind == NilValue }

// SymID returns the interned symbol ID (sym.None for non-symbols).
func (v Value) SymID() sym.ID {
	if v.Kind != SymValue {
		return sym.None
	}
	return v.sym
}

// SymName returns the symbol's string ("" for non-symbols).
func (v Value) SymName() string {
	if v.Kind != SymValue {
		return ""
	}
	return sym.Name(v.sym)
}

// Equal reports whether two values are identical atoms. Symbol equality
// is a single integer compare — the point of interning.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case SymValue:
		return v.sym == o.sym
	case NumValue:
		return v.Num == o.Num
	default:
		return true
	}
}

// Less reports whether v orders before o. Numbers order numerically;
// symbols order lexically (via the interner, so display order stays
// stable regardless of interning order); numbers order before symbols;
// nil orders first. OPS5 predicates < > <= >= are only meaningful on
// numbers, but a total order is useful for deterministic output.
func (v Value) Less(o Value) bool {
	if v.Kind != o.Kind {
		return v.Kind < o.Kind
	}
	switch v.Kind {
	case SymValue:
		if v.sym == o.sym {
			return false
		}
		return sym.Name(v.sym) < sym.Name(o.sym)
	case NumValue:
		return v.Num < o.Num
	default:
		return false
	}
}

// String renders the value in OPS5 surface syntax. Symbols that would
// not survive re-lexing as a bare atom (spaces, delimiters, digits-only
// spellings, variable or predicate look-alikes) are |quoted|.
func (v Value) String() string {
	switch v.Kind {
	case SymValue:
		s := sym.Name(v.sym)
		if symNeedsQuote(s) {
			return "|" + s + "|"
		}
		return s
	case NumValue:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	default:
		return "nil"
	}
}

// MarshalJSON renders the value the way the /v1 API spells it: a symbol
// is a JSON string, a number a JSON number, nil is null. The bytes are
// encoding/json's own for the corresponding Go string or float64, so a
// non-finite number is an encoding error here as it is there.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.Kind {
	case SymValue:
		return json.Marshal(sym.Name(v.sym))
	case NumValue:
		return json.Marshal(v.Num)
	default:
		return []byte("null"), nil
	}
}

// UnmarshalJSON is MarshalJSON's inverse. OPS5 has no booleans, so true
// and false become the symbols of the same spelling; arrays and objects
// are not atoms and are rejected, as is a number float64 cannot hold.
func (v *Value) UnmarshalJSON(b []byte) error {
	switch b[0] {
	case 'n':
		*v = Value{}
	case 't', 'f':
		*v = Sym(string(b))
	case '"':
		// A string without escapes is its own bytes; the rest go
		// through encoding/json's unquoting.
		if s := b[1 : len(b)-1]; bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
			*v = Sym(string(s))
			return nil
		}
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*v = Sym(s)
	case '{', '[':
		return errors.New("ops5: a JSON object or array is not an atomic value (want string, number, boolean or null)")
	default:
		n, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return fmt.Errorf("ops5: unsupported JSON number %s", b)
		}
		*v = Num(n)
	}
	return nil
}

// HashSeed is the initial accumulator for HashValue chains (the FNV-1a
// offset basis).
const HashSeed uint64 = 14695981039346656037

// HashValue folds v into the running FNV-1a hash h and returns it. It
// is Equal-consistent — equal values (per Equal) always hash
// identically — but not injective, so callers keying hash
// buckets by it must re-verify candidates with the full test; a
// collision only widens a bucket, never loses a match. Symbols hash
// their 4-byte interned ID, so the per-probe cost is constant — no
// string bytes are touched on the join hot path. Negative zero hashes
// as zero to stay consistent with Equal.
func HashValue(h uint64, v Value) uint64 {
	const prime = 1099511628211
	switch v.Kind {
	case SymValue:
		id := uint32(v.sym)
		h = (h ^ 's') * prime
		h = (h ^ uint64(id&0xff)) * prime
		h = (h ^ uint64((id>>8)&0xff)) * prime
		h = (h ^ uint64((id>>16)&0xff)) * prime
		h = (h ^ uint64(id>>24)) * prime
	case NumValue:
		n := v.Num
		if n == 0 {
			n = 0
		}
		bits := math.Float64bits(n)
		h = (h ^ 'n') * prime
		for i := 0; i < 8; i++ {
			h = (h ^ (bits & 0xff)) * prime
			bits >>= 8
		}
	default:
		h = (h ^ 'x') * prime
	}
	return h
}

// atomString renders any identifier that lexes as an atom (class
// names, attribute names, production names), quoting when necessary.
func atomString(s string) string {
	if symNeedsQuote(s) {
		return "|" + s + "|"
	}
	return s
}

// symNeedsQuote reports whether a symbol must be |quoted| to round-trip
// through the lexer as the same symbolic atom.
func symNeedsQuote(s string) bool {
	if s == "" {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '(', ')', '{', '}', '^', ';', '|', ' ', '\t', '\n', '\r':
			return true
		}
		if c < 0x20 || c == 0x7f {
			return true // control characters only survive quoted
		}
	}
	if looksNumeric(s) {
		return true // would re-lex as a number
	}
	if _, isVar := isVarAtom(s); isVar {
		return true // would re-lex as a variable
	}
	if _, isPred := predFromAtom(s); isPred {
		return true // would re-lex as a predicate
	}
	if strings.Contains(s, "<<") || strings.Contains(s, ">>") || s == "-->" {
		return true // the lexer splits bare atoms at << and >>
	}
	return false
}

// Predicate is a comparison operator usable in a condition-element test.
type Predicate uint8

// The OPS5 test predicates.
const (
	PredEq       Predicate = iota // equality (the default when no operator given)
	PredNe                        // <>
	PredLt                        // <
	PredGt                        // >
	PredLe                        // <=
	PredGe                        // >=
	PredSameType                  // <=> : same type (both numbers or both symbols)
)

// String renders the predicate in OPS5 surface syntax.
func (p Predicate) String() string {
	switch p {
	case PredEq:
		return "="
	case PredNe:
		return "<>"
	case PredLt:
		return "<"
	case PredGt:
		return ">"
	case PredLe:
		return "<="
	case PredGe:
		return ">="
	case PredSameType:
		return "<=>"
	default:
		return fmt.Sprintf("pred(%d)", uint8(p))
	}
}

// Compare applies predicate p to (a, b), i.e. evaluates "a p b".
// Ordering predicates on mixed or symbolic operands are false, matching
// OPS5's behaviour of failing ordering tests on non-numbers.
func (p Predicate) Compare(a, b Value) bool {
	switch p {
	case PredEq:
		return a.Equal(b)
	case PredNe:
		return !a.Equal(b)
	case PredSameType:
		return a.Kind == b.Kind
	}
	if a.Kind != NumValue || b.Kind != NumValue {
		return false
	}
	switch p {
	case PredLt:
		return a.Num < b.Num
	case PredGt:
		return a.Num > b.Num
	case PredLe:
		return a.Num <= b.Num
	case PredGe:
		return a.Num >= b.Num
	default:
		return false
	}
}
