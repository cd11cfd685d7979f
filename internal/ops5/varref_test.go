package ops5

import (
	"testing"

	"repro/internal/sym"
)

// TestVarRefBindingOccurrence: a variable whose first occurrence is a
// predicate test is read at fire time from its binding occurrence, the
// first equality test, here in a later condition element; a bind
// moves only the references after it to its slot.
func TestVarRefBindingOccurrence(t *testing.T) {
	p, err := ParseProduction(`
(p x
    (a ^n > <v> ^k <w>)
  - (d ^m <u>)
    (b ^k <w> ^m <v>)
  -->
    (make c ^v <v> ^w (compute <w> + <v>))
    (bind <v> (compute <v> * 2))
    (make c ^v <v>)
    (bind <v> 7)
    (bind <u2> <w>)
    (write <v> <u2>))
`)
	if err != nil {
		t.Fatal(err)
	}
	lhs := func(ce int, attr string) VarRef { return VarRef{CE: ce, Attr: sym.Intern(attr)} }
	v, w := lhs(2, "m"), lhs(0, "k")
	rhs := p.RHS
	for _, c := range []struct {
		what      string
		got, want VarRef
	}{
		{"first make ^v", rhs[0].Pairs[0].Term.Ref, v},
		{"compute <w>", rhs[0].Pairs[1].Term.Compute.Operands[0].Ref, w},
		{"compute <v>", rhs[0].Pairs[1].Term.Compute.Operands[1].Ref, v},
		{"bind's own <v>", rhs[1].Term.Compute.Operands[0].Ref, v},
		{"make after bind", rhs[2].Pairs[0].Term.Ref, VarRef{Bind: 1}},
		{"bind <u2> <w>", rhs[4].Term.Ref, w},
		{"write <v> after rebind", rhs[5].Args[0].Ref, VarRef{Bind: 1}},
		{"write <u2>", rhs[5].Args[1].Ref, VarRef{Bind: 2}},
	} {
		if c.got != c.want {
			t.Errorf("%s: ref %+v, want %+v", c.what, c.got, c.want)
		}
	}
	if rhs[1].Slot != 0 || rhs[3].Slot != 0 || rhs[4].Slot != 1 || p.BindSlots != 2 {
		t.Errorf("bind slots %d %d %d of %d, want 0 0 1 of 2", rhs[1].Slot, rhs[3].Slot, rhs[4].Slot, p.BindSlots)
	}
	if err := p.Validate(); err != nil || rhs[0].Pairs[0].Term.Ref != v || p.BindSlots != 2 {
		t.Errorf("second Validate: err %v, ref %+v, %d slots", err, rhs[0].Pairs[0].Term.Ref, p.BindSlots)
	}
}

// TestVarRefPredicateOnly: a variable only ever tested by a predicate
// passes Validate, as before, but has no value to read.
func TestVarRefPredicateOnly(t *testing.T) {
	p, err := ParseProduction(`(p x (a ^n > <v>) --> (make c ^v <v>))`)
	if err != nil {
		t.Fatal(err)
	}
	if ref := p.RHS[0].Pairs[0].Term.Ref; ref != (VarRef{}) {
		t.Errorf("predicate-only variable resolved to %+v", ref)
	}
}
