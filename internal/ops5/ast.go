package ops5

import (
	"fmt"
	"strings"

	"repro/internal/sym"
)

// TermKind discriminates the forms an attribute test term can take.
type TermKind uint8

// The kinds of test terms that may follow an ^attribute in a condition
// element.
const (
	// TermConst compares the attribute against a constant with Pred.
	TermConst TermKind = iota
	// TermVar binds or tests a variable, optionally through Pred
	// (e.g. "> <x>" tests the attribute against the binding of <x>).
	TermVar
	// TermDisj is a disjunction << a b c >> of constants; the attribute
	// must equal one of them.
	TermDisj
	// TermAny matches anything (an anonymous variable or bare nil test).
	TermAny
)

// Term is a single primitive test applied to one attribute's value.
type Term struct {
	Kind TermKind
	Pred Predicate // for TermConst and TermVar
	Val  Value     // for TermConst
	Var  string    // for TermVar: the variable name without <>
	Disj []Value   // for TermDisj
}

// String renders the term in OPS5 surface syntax.
func (t Term) String() string {
	switch t.Kind {
	case TermConst:
		if t.Pred == PredEq {
			return t.Val.String()
		}
		return t.Pred.String() + " " + t.Val.String()
	case TermVar:
		if t.Pred == PredEq {
			return "<" + t.Var + ">"
		}
		return t.Pred.String() + " <" + t.Var + ">"
	case TermDisj:
		parts := make([]string, len(t.Disj))
		for i, v := range t.Disj {
			parts[i] = v.String()
		}
		return "<< " + strings.Join(parts, " ") + " >>"
	default:
		return "<any>"
	}
}

// AttrTest is the conjunction of terms applied to one attribute of a
// condition element. A bare value compiles to a single term; a
// conjunction { <x> > 7 } compiles to several.
type AttrTest struct {
	Attr string
	// AttrID is the interned ID of Attr, filled in by the parser and by
	// Production.Validate. When set (non-zero), matching resolves the
	// attribute by integer compare instead of a string lookup.
	AttrID sym.ID
	Terms  []Term
}

// valueIn fetches the tested attribute's value from w, through the
// interned ID when the test has been compiled (Validate), falling back
// to a by-name lookup for hand-built, unvalidated condition elements.
func (at *AttrTest) valueIn(w *WME) Value {
	if at.AttrID != sym.None {
		return w.GetID(at.AttrID)
	}
	return w.Get(at.Attr)
}

// String renders the attribute test in OPS5 surface syntax.
func (a AttrTest) String() string {
	if len(a.Terms) == 1 {
		return "^" + atomString(a.Attr) + " " + a.Terms[0].String()
	}
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return "^" + atomString(a.Attr) + " { " + strings.Join(parts, " ") + " }"
}

// CondElement is one condition element in a production's left-hand side:
// a class name, attribute tests, a negation flag, and an optional OPS5
// element variable ({ <g> (goal ...) }) that right-hand-side modify and
// remove actions can reference instead of a positional index.
type CondElement struct {
	Negated bool
	Class   string
	// ClassID is the interned ID of Class, filled in by the parser and
	// by Production.Validate; matching then compares class symbols as
	// integers.
	ClassID sym.ID
	Tests   []AttrTest
	// ElemVar is the element variable bound to the matched WME, without
	// the angle brackets; empty when the CE is unnamed.
	ElemVar string
}

// classMatches reports whether w's class is the CE's class, by interned
// ID when available.
func (ce *CondElement) classMatches(w *WME) bool {
	if ce.ClassID != sym.None {
		return ce.ClassID == w.class
	}
	return ce.Class == w.Class()
}

// Intern fills in the interned symbol IDs (class, tested attributes)
// that let matchers run on integer compares. Validate calls it; it is
// idempotent and cheap after the first call.
func (ce *CondElement) Intern() {
	if ce.ClassID == sym.None && ce.Class != "" {
		ce.ClassID = sym.Intern(ce.Class)
	}
	for i := range ce.Tests {
		if ce.Tests[i].AttrID == sym.None {
			ce.Tests[i].AttrID = sym.Intern(ce.Tests[i].Attr)
		}
	}
}

// String renders the condition element in OPS5 surface syntax.
func (ce *CondElement) String() string {
	var b strings.Builder
	if ce.Negated {
		b.WriteString("-")
	}
	if ce.ElemVar != "" {
		b.WriteString("{ <" + ce.ElemVar + "> ")
	}
	b.WriteString("(")
	b.WriteString(atomString(ce.Class))
	for _, t := range ce.Tests {
		b.WriteString(" ")
		b.WriteString(t.String())
	}
	b.WriteString(")")
	if ce.ElemVar != "" {
		b.WriteString(" }")
	}
	return b.String()
}

// Variables returns the set of variable names that occur in the CE.
func (ce *CondElement) Variables() map[string]bool {
	vars := make(map[string]bool)
	for _, at := range ce.Tests {
		for _, t := range at.Terms {
			if t.Kind == TermVar {
				vars[t.Var] = true
			}
		}
	}
	return vars
}

// ConstTests returns the attribute tests that can be evaluated on a
// single WME without variable bindings: constant, disjunction and "any"
// terms, plus within-CE equality-variable repeats which are handled by
// the caller. The result preserves source order.
func (ce *CondElement) ConstTests() []AttrTest {
	var out []AttrTest
	for _, at := range ce.Tests {
		var terms []Term
		for _, t := range at.Terms {
			if t.Kind == TermConst || t.Kind == TermDisj {
				terms = append(terms, t)
			}
		}
		if len(terms) > 0 {
			out = append(out, AttrTest{Attr: at.Attr, Terms: terms})
		}
	}
	return out
}

// ActionKind discriminates the right-hand-side action forms.
type ActionKind uint8

// The supported RHS actions.
const (
	// ActMake creates a new working-memory element.
	ActMake ActionKind = iota
	// ActModify removes the WME matched by a CE and re-makes it with
	// some attributes changed.
	ActModify
	// ActRemove deletes the WME matched by a CE.
	ActRemove
	// ActWrite prints its arguments (captured by the engine).
	ActWrite
	// ActHalt stops the recognize-act loop.
	ActHalt
	// ActBind binds a variable to a computed value for later actions.
	ActBind
)

// RHSTerm is an argument position in an RHS action: a constant, a
// variable reference substituted from the instantiation at fire time,
// a (compute ...) arithmetic expression, or the (crlf) write control.
type RHSTerm struct {
	IsVar bool
	Var   string
	// Ref locates a variable's value at fire time (set by Validate).
	Ref     VarRef
	Val     Value
	Compute *ComputeExpr
	Crlf    bool
}

// VarRef is where a right-hand-side variable's value lives when its
// production fires, as Production.Validate resolves it: with Bind > 0,
// the firing's bind slot Bind-1, which the latest earlier bind action
// of the variable set; otherwise attribute Attr of the element matched
// by condition element CE (0-based), the variable's binding occurrence
// (its first equality test in a positive CE, in LHS and test order).
// The zero VarRef is unresolved: a variable only tested by predicates
// has no value to read.
type VarRef struct {
	CE   int
	Attr sym.ID
	Bind int
}

// String renders the term.
func (t RHSTerm) String() string {
	switch {
	case t.IsVar:
		return "<" + t.Var + ">"
	case t.Compute != nil:
		return t.Compute.String()
	case t.Crlf:
		return "(crlf)"
	default:
		return t.Val.String()
	}
}

// RHSPair is an ^attribute value pair in a make or modify action.
type RHSPair struct {
	Attr string
	// AttrID is the interned ID of Attr (set by Validate); the engine
	// builds result fields from it without re-hashing the name.
	AttrID sym.ID
	Term   RHSTerm
}

// Action is one right-hand-side action of a production.
type Action struct {
	Kind  ActionKind
	Class string // for make
	// ClassID is the interned ID of Class (set by Validate).
	ClassID sym.ID
	// CE is the 1-based condition-element index for modify/remove.
	// When the source used an element variable, CEVar holds its name
	// and Validate resolves CE from it.
	CE    int
	CEVar string
	Pairs []RHSPair // attribute updates for make/modify
	Args  []RHSTerm // for write
	Var   string    // for bind
	Term  RHSTerm   // for bind
	// Slot is the bind slot a bind action sets (0-based; Validate
	// assigns one per variable a production binds).
	Slot int
}

// String renders the action in OPS5 surface syntax.
func (a *Action) String() string {
	var b strings.Builder
	b.WriteString("(")
	switch a.Kind {
	case ActMake:
		b.WriteString("make " + atomString(a.Class))
		for _, p := range a.Pairs {
			fmt.Fprintf(&b, " ^%s %s", atomString(p.Attr), p.Term)
		}
	case ActModify:
		fmt.Fprintf(&b, "modify %s", a.ceDesignator())
		for _, p := range a.Pairs {
			fmt.Fprintf(&b, " ^%s %s", atomString(p.Attr), p.Term)
		}
	case ActRemove:
		fmt.Fprintf(&b, "remove %s", a.ceDesignator())
	case ActWrite:
		b.WriteString("write")
		for _, t := range a.Args {
			b.WriteString(" " + t.String())
		}
	case ActHalt:
		b.WriteString("halt")
	case ActBind:
		fmt.Fprintf(&b, "bind <%s> %s", a.Var, a.Term)
	}
	b.WriteString(")")
	return b.String()
}

// ceDesignator renders the modify/remove target as written.
func (a *Action) ceDesignator() string {
	if a.CEVar != "" {
		return "<" + a.CEVar + ">"
	}
	return fmt.Sprint(a.CE)
}

// Production is a complete OPS5 rule: a name, a left-hand side of
// condition elements, and a right-hand side of actions.
type Production struct {
	Name string
	LHS  []*CondElement
	RHS  []*Action
	// Order is the load order, used by specificity tie-breaks and for
	// deterministic iteration.
	Order int
	// BindSlots is the number of distinct variables the RHS binds
	// (set by Validate): the bind slots one firing needs.
	BindSlots int
}

// String renders the production in OPS5 surface syntax.
func (p *Production) String() string {
	var b strings.Builder
	b.WriteString("(p " + atomString(p.Name) + "\n")
	for _, ce := range p.LHS {
		b.WriteString("    " + ce.String() + "\n")
	}
	b.WriteString("  -->\n")
	for _, a := range p.RHS {
		b.WriteString("    " + a.String() + "\n")
	}
	b.WriteString(")")
	return b.String()
}

// Intern fills in the interned symbol IDs across the production — CE
// classes and tested attributes, make/modify classes and attributes —
// so matching and RHS evaluation run on integer compares. Validate
// calls it; it is idempotent.
func (p *Production) Intern() {
	for _, ce := range p.LHS {
		ce.Intern()
	}
	for _, a := range p.RHS {
		if a.ClassID == sym.None && a.Class != "" {
			a.ClassID = sym.Intern(a.Class)
		}
		for i := range a.Pairs {
			if a.Pairs[i].AttrID == sym.None {
				a.Pairs[i].AttrID = sym.Intern(a.Pairs[i].Attr)
			}
		}
	}
}

// PositiveCEs returns the indices (0-based) of non-negated condition
// elements in LHS order.
func (p *Production) PositiveCEs() []int {
	out := make([]int, 0, len(p.LHS))
	for i, ce := range p.LHS {
		if !ce.Negated {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural well-formedness: a name without '|' (the
// separator of Instantiation.Key, which the lexer keeps out of parsed
// names and this keeps out of hand-built ones, so that a key names one
// production and one tag list), at least one positive CE, modify/remove
// indices referencing positive CEs, and RHS variables bound somewhere in
// the LHS (or by a preceding bind action). It also compiles every RHS
// variable to the VarRef it reads at fire time and numbers the bind
// slots. It writes a compiled field only when its value changes, so
// matchers that compile one parsed program at once (each validates it)
// do not race.
func (p *Production) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("ops5: production has no name")
	}
	if strings.Contains(p.Name, "|") {
		return fmt.Errorf("ops5: production name %q contains '|'", p.Name)
	}
	p.Intern()
	if len(p.LHS) == 0 {
		return fmt.Errorf("ops5: production %s has an empty left-hand side", p.Name)
	}
	pos := p.PositiveCEs()
	if len(pos) == 0 {
		return fmt.Errorf("ops5: production %s has no positive condition element", p.Name)
	}
	if p.LHS[0].Negated {
		return fmt.Errorf("ops5: production %s: the first condition element must be positive", p.Name)
	}
	// bound holds every variable an RHS may name; refs the ones with a
	// value to read, first from their binding occurrences, then, as the
	// RHS walk passes each bind action, from its slot.
	bound := make(map[string]bool)
	refs := make(map[string]VarRef)
	for i, ce := range p.LHS {
		if ce.Negated {
			continue
		}
		for _, at := range ce.Tests {
			for _, t := range at.Terms {
				if t.Kind != TermVar {
					continue
				}
				bound[t.Var] = true
				if _, ok := refs[t.Var]; !ok && t.Pred == PredEq {
					refs[t.Var] = VarRef{CE: i, Attr: at.AttrID}
				}
			}
		}
	}
	// Resolve element variables to CE indices and reject collisions
	// with ordinary variables or duplicate names.
	elemIdx := make(map[string]int)
	for i, ce := range p.LHS {
		if ce.ElemVar == "" {
			continue
		}
		if ce.Negated {
			return fmt.Errorf("ops5: production %s: element variable <%s> on a negated condition element",
				p.Name, ce.ElemVar)
		}
		if _, dup := elemIdx[ce.ElemVar]; dup {
			return fmt.Errorf("ops5: production %s: element variable <%s> bound twice", p.Name, ce.ElemVar)
		}
		if bound[ce.ElemVar] {
			return fmt.Errorf("ops5: production %s: <%s> is both an element variable and a value variable",
				p.Name, ce.ElemVar)
		}
		elemIdx[ce.ElemVar] = i + 1
	}
	for _, a := range p.RHS {
		if a.CEVar == "" {
			continue
		}
		idx, ok := elemIdx[a.CEVar]
		if !ok {
			return fmt.Errorf("ops5: production %s: action %s references unknown element variable <%s>",
				p.Name, a, a.CEVar)
		}
		if a.CE != idx {
			a.CE = idx
		}
	}
	var checkTerm func(t *RHSTerm) error
	checkTerm = func(t *RHSTerm) error {
		if t.IsVar {
			if !bound[t.Var] {
				return fmt.Errorf("ops5: production %s uses unbound variable <%s> in RHS", p.Name, t.Var)
			}
			if ref := refs[t.Var]; t.Ref != ref {
				t.Ref = ref
			}
		}
		if t.Compute != nil {
			for i := range t.Compute.Operands {
				if err := checkTerm(&t.Compute.Operands[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	slots := make(map[string]int)
	for _, a := range p.RHS {
		switch a.Kind {
		case ActModify, ActRemove:
			if a.CE < 1 || a.CE > len(p.LHS) {
				return fmt.Errorf("ops5: production %s action %s references CE %d of %d",
					p.Name, a, a.CE, len(p.LHS))
			}
			if p.LHS[a.CE-1].Negated {
				return fmt.Errorf("ops5: production %s action %s references negated CE %d",
					p.Name, a, a.CE)
			}
		case ActBind:
			if err := checkTerm(&a.Term); err != nil {
				return err
			}
			slot, ok := slots[a.Var]
			if !ok {
				slot = len(slots)
				slots[a.Var] = slot
			}
			if a.Slot != slot {
				a.Slot = slot
			}
			bound[a.Var] = true
			refs[a.Var] = VarRef{Bind: slot + 1}
		}
		for i := range a.Pairs {
			if err := checkTerm(&a.Pairs[i].Term); err != nil {
				return err
			}
		}
		for i := range a.Args {
			if err := checkTerm(&a.Args[i]); err != nil {
				return err
			}
		}
	}
	if p.BindSlots != len(slots) {
		p.BindSlots = len(slots)
	}
	return nil
}
