package ops5

import (
	"strings"
	"testing"
)

// evalConst evaluates a compute expression with constant-only resolve.
func evalConst(t *testing.T, src string) Value {
	t.Helper()
	full := `(p c (a ^v <x>) --> (make b ^v ` + src + `))`
	p, err := ParseProduction(full)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	term := p.RHS[0].Pairs[0].Term
	if term.Compute == nil {
		t.Fatalf("term %v is not a compute expression", term)
	}
	v, err := term.Compute.Eval(func(t *RHSTerm) (Value, error) {
		if t.IsVar {
			return Num(10), nil // all variables resolve to 10
		}
		return t.Val, nil
	})
	if err != nil {
		t.Fatalf("eval %s: %v", src, err)
	}
	return v
}

func TestComputeRightToLeft(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{`(compute 1 + 2)`, 3},
		{`(compute 5 - 2)`, 3},
		{`(compute 2 * 3)`, 6},
		{`(compute 7 // 2)`, 3.5},
		{`(compute 7 \\ 2)`, 1},
		// No precedence, right-to-left: 2 * (3 + 4) = 14 (OPS5 rule).
		{`(compute 2 * 3 + 4)`, 14},
		// 10 - (2 - 1) = 9.
		{`(compute 10 - 2 - 1)`, 9},
		{`(compute <x> + 1)`, 11},
		{`(compute 100)`, 100},
	}
	for _, c := range cases {
		if got := evalConst(t, c.src); got.Num != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	bad := []string{
		`(p c (a ^v <x>) --> (make b ^v (compute)))`,
		`(p c (a ^v <x>) --> (make b ^v (compute 1 +)))`,
		`(p c (a ^v <x>) --> (make b ^v (compute + 1)))`,
		`(p c (a ^v <x>) --> (make b ^v (compute 1 2)))`,
		`(p c (a ^v <x>) --> (make b ^v (compute foo + 1)))`,
		`(p c (a ^v <x>) --> (make b ^v (frobnicate 1)))`,
	}
	for _, src := range bad {
		if _, err := ParseProduction(src); err == nil {
			t.Errorf("expected parse error for %s", src)
		}
	}
}

// A result no number can hold ends the firing with an error: a zero
// divisor, or an overflow — even one a later operator would fold back
// into range (1 // Inf is 0).
func TestComputeRejectsUnrepresentableResults(t *testing.T) {
	for _, c := range []struct{ expr, want string }{
		{`(compute 1 // 0)`, "division by zero"},
		{`(compute 1 \\ 0)`, "modulo by zero"},
		{`(compute <x> * 1e308)`, "non-finite"},
		{`(compute -1e308 - <x>)`, "non-finite"},
		{`(compute 1 // <x> * 1e308)`, "non-finite"},
	} {
		p, err := ParseProduction(`(p c (a ^v <x>) --> (make b ^v ` + c.expr + `))`)
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.RHS[0].Pairs[0].Term.Compute.Eval(func(t *RHSTerm) (Value, error) {
			if t.IsVar {
				return Num(1e308), nil
			}
			return t.Val, nil
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s = %v, %v; want a %s error", c.expr, v, err, c.want)
		}
	}
}

// An out-of-range numeric literal lexes as a symbol, never as ±Inf.
func TestNumericLiteralIsFinite(t *testing.T) {
	for _, atom := range []string{"1e999", "-1e999", "0x1p2000"} {
		if v := parseAtom(atom); v.Kind != SymValue {
			t.Errorf("parseAtom(%s) = %v (kind %d), want a symbol", atom, v, v.Kind)
		}
	}
}

func TestComputeNonNumericOperand(t *testing.T) {
	full := `(p c (a ^v <x>) --> (make b ^v (compute <x> + 1)))`
	p, err := ParseProduction(full)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RHS[0].Pairs[0].Term.Compute.Eval(func(t *RHSTerm) (Value, error) {
		return Sym("oops"), nil
	})
	if err == nil || !strings.Contains(err.Error(), "not a number") {
		t.Errorf("err = %v, want non-numeric operand error", err)
	}
}

func TestComputeRoundTrip(t *testing.T) {
	src := `(p c (a ^v <x>) --> (make b ^v (compute <x> * 2 + 1)))`
	p1, err := ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseProduction(p1.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, p1.String())
	}
	if p1.String() != p2.String() {
		t.Errorf("round trip:\n%s\n%s", p1, p2)
	}
}

func TestComputeUnboundVariableCaughtByValidate(t *testing.T) {
	src := `(p c (a ^v <x>) --> (make b ^v (compute <zz> + 1)))`
	if _, err := ParseProduction(src); err == nil || !strings.Contains(err.Error(), "unbound variable") {
		t.Errorf("err = %v, want unbound variable", err)
	}
}

// TestValidateRejectsBarInName: '|' separates the name from the tags in
// Instantiation.Key, so "p" over tags (1, 2) and "p|1" over tag (2) would
// spell one key. The lexer cannot produce such a name; a hand-built
// production is stopped at Validate, which every matcher calls.
func TestValidateRejectsBarInName(t *testing.T) {
	p, err := ParseProduction(`(p ok (a ^v 1) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	p.Name = "ok|1"
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "contains '|'") {
		t.Errorf("err = %v, want the name rejected", err)
	}
}

func TestLiteralize(t *testing.T) {
	good := `
(literalize goal type color)
(literalize block id color selected)
(make goal ^type find ^color red)
(p ok (goal ^type find) (block ^id <i>) --> (modify 2 ^selected yes))
`
	prog, err := Parse(good)
	if err != nil {
		t.Fatalf("valid literalized program rejected: %v", err)
	}
	if len(prog.Literalize["block"]) != 3 {
		t.Errorf("block attrs = %v", prog.Literalize["block"])
	}

	bad := []struct{ name, src, want string }{
		{"lhs", `(literalize goal type) (p x (goal ^colour red) --> (halt))`, "no attribute ^colour"},
		{"make", `(literalize goal type) (p x (goal ^type a) --> (make goal ^oops 1))`, "no attribute ^oops"},
		{"modify", `(literalize goal type) (p x (goal ^type a) --> (modify 1 ^oops 1))`, "no attribute ^oops"},
		{"top-make", `(literalize goal type) (make goal ^oops 1)`, "no attribute ^oops"},
		{"dup", `(literalize goal type) (literalize goal color)`, "literalized twice"},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}

	// Undeclared classes remain unconstrained.
	mixed := `(literalize goal type) (p x (other ^anything 1) --> (halt))`
	if _, err := Parse(mixed); err != nil {
		t.Errorf("undeclared class should be unconstrained: %v", err)
	}
}

func TestCrlfInWrite(t *testing.T) {
	src := `(p w (a ^v <x>) --> (write line1 (crlf) line2))`
	p, err := ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.RHS[0].Args) != 3 || !p.RHS[0].Args[1].Crlf {
		t.Errorf("args = %v", p.RHS[0].Args)
	}
	// Round trip.
	if _, err := ParseProduction(p.String()); err != nil {
		t.Errorf("reparse: %v\n%s", err, p.String())
	}
}
