package ops5

import (
	"fmt"

	"repro/internal/sym"
)

// Program is a parsed OPS5 source file: productions, any top-level
// (make ...) forms establishing the initial working memory, and
// (literalize ...) attribute declarations.
type Program struct {
	Productions []*Production
	// InitialWM holds WMEs created by top-level make forms, in order.
	InitialWM []*WME
	// Literalize maps declared classes to their attribute lists. When a
	// class is declared, references to undeclared attributes of that
	// class are compile errors (checked by CheckLiteralize).
	Literalize map[string][]string
}

// parser consumes the token stream produced by the lexer.
type parser struct {
	toks []token
	pos  int
}

// Parse parses a complete OPS5 source text.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokLParen {
			return nil, p.errorf("expected '(' at top level, found %s", t)
		}
		p.next()
		head := p.peek()
		if head.kind != tokAtom {
			return nil, p.errorf("expected p or make after '(', found %s", head)
		}
		switch head.text {
		case "p":
			p.next()
			prod, err := p.parseProduction()
			if err != nil {
				return nil, err
			}
			prod.Order = len(prog.Productions)
			if err := prod.Validate(); err != nil {
				return nil, err
			}
			prog.Productions = append(prog.Productions, prod)
		case "make":
			p.next()
			w, err := p.parseTopLevelMake()
			if err != nil {
				return nil, err
			}
			prog.InitialWM = append(prog.InitialWM, w)
		case "literalize":
			p.next()
			if err := p.parseLiteralize(prog); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("unknown top-level form %q", head.text)
		}
	}
	if err := prog.CheckLiteralize(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseProduction parses a single (p ...) form.
func ParseProduction(src string) (*Production, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Productions) != 1 {
		return nil, fmt.Errorf("ops5: expected exactly one production, found %d", len(prog.Productions))
	}
	return prog.Productions[0], nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, p.errorfAt(t, "expected %s, found %s", what, t)
	}
	return t, nil
}

func (p *parser) errorf(format string, args ...any) error {
	return p.errorfAt(p.peek(), format, args...)
}

func (p *parser) errorfAt(t token, format string, args ...any) error {
	return fmt.Errorf("ops5: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

// parseProduction parses the body after "(p": name, CEs, -->, actions, ")".
func (p *parser) parseProduction() (*Production, error) {
	nameTok, err := p.expect(tokAtom, "production name")
	if err != nil {
		return nil, err
	}
	prod := &Production{Name: nameTok.text}
	// Left-hand side: condition elements until -->.
	for {
		t := p.peek()
		if t.kind == tokArrow {
			p.next()
			break
		}
		negated := false
		if t.kind == tokMinus {
			p.next()
			negated = true
			t = p.peek()
		}
		switch t.kind {
		case tokLParen:
			ce, err := p.parseCondElement(negated)
			if err != nil {
				return nil, err
			}
			prod.LHS = append(prod.LHS, ce)
		case tokLBrace:
			ce, err := p.parseBoundCondElement(negated)
			if err != nil {
				return nil, err
			}
			prod.LHS = append(prod.LHS, ce)
		default:
			return nil, p.errorf("expected condition element or -->, found %s", t)
		}
	}
	// Right-hand side: actions until ')'.
	for {
		t := p.peek()
		if t.kind == tokRParen {
			p.next()
			break
		}
		if t.kind != tokLParen {
			return nil, p.errorf("expected action or ')', found %s", t)
		}
		a, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		prod.RHS = append(prod.RHS, a)
	}
	return prod, nil
}

// parseBoundCondElement parses an element-variable binding form:
// { <var> (class ...) } or { (class ...) <var> }.
func (p *parser) parseBoundCondElement(negated bool) (*CondElement, error) {
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	var elemVar string
	var ce *CondElement
	for i := 0; i < 2; i++ {
		t := p.peek()
		switch {
		case t.kind == tokAtom && elemVar == "":
			name, isVar := isVarAtom(t.text)
			if !isVar {
				return nil, p.errorfAt(t, "expected <element-variable>, found %s", t.text)
			}
			p.next()
			elemVar = name
		case t.kind == tokLParen && ce == nil:
			var err error
			ce, err = p.parseCondElement(negated)
			if err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("expected element variable and condition element inside { }, found %s", t)
		}
	}
	if _, err := p.expect(tokRBrace, "'}'"); err != nil {
		return nil, err
	}
	ce.ElemVar = elemVar
	return ce, nil
}

// parseCondElement parses (class ^attr term ...).
func (p *parser) parseCondElement(negated bool) (*CondElement, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	classTok, err := p.expect(tokAtom, "class name")
	if err != nil {
		return nil, err
	}
	ce := &CondElement{Negated: negated, Class: classTok.text}
	for {
		t := p.peek()
		switch t.kind {
		case tokRParen:
			p.next()
			return ce, nil
		case tokCaret:
			p.next()
			attrTok, err := p.expect(tokAtom, "attribute name")
			if err != nil {
				return nil, err
			}
			at := AttrTest{Attr: attrTok.text}
			terms, err := p.parseTerms()
			if err != nil {
				return nil, err
			}
			at.Terms = terms
			ce.Tests = append(ce.Tests, at)
		default:
			return nil, p.errorf("expected ^attribute or ')' in condition element, found %s", t)
		}
	}
}

// parseTerms parses the value position after ^attr: a single term, a
// disjunction << ... >>, or a conjunction { ... }.
func (p *parser) parseTerms() ([]Term, error) {
	t := p.peek()
	switch t.kind {
	case tokLBrace:
		p.next()
		var terms []Term
		for {
			if p.peek().kind == tokRBrace {
				p.next()
				if len(terms) == 0 {
					return nil, p.errorf("empty conjunction {}")
				}
				return terms, nil
			}
			term, err := p.parseOneTerm()
			if err != nil {
				return nil, err
			}
			terms = append(terms, term)
		}
	default:
		term, err := p.parseOneTerm()
		if err != nil {
			return nil, err
		}
		return []Term{term}, nil
	}
}

// parseOneTerm parses one primitive term: [pred] atom, <var>, or <<...>>.
func (p *parser) parseOneTerm() (Term, error) {
	t := p.next()
	switch t.kind {
	case tokLDisj:
		var vals []Value
		for {
			u := p.next()
			if u.kind == tokRDisj {
				if len(vals) == 0 {
					return Term{}, p.errorfAt(u, "empty disjunction << >>")
				}
				return Term{Kind: TermDisj, Disj: vals}, nil
			}
			if u.kind != tokAtom {
				return Term{}, p.errorfAt(u, "expected constant in << >>, found %s", u)
			}
			if _, isVar := isVarAtom(u.text); isVar {
				return Term{}, p.errorfAt(u, "variables are not allowed inside << >>")
			}
			vals = append(vals, parseAtom(u.text))
		}
	case tokAtom:
		if pred, ok := predFromAtom(t.text); ok {
			// Predicate followed by a constant or a variable.
			u := p.next()
			if u.kind != tokAtom {
				return Term{}, p.errorfAt(u, "expected value after predicate %s, found %s", t.text, u)
			}
			if name, isVar := isVarAtom(u.text); isVar {
				return Term{Kind: TermVar, Pred: pred, Var: name}, nil
			}
			return Term{Kind: TermConst, Pred: pred, Val: parseAtom(u.text)}, nil
		}
		if name, isVar := isVarAtom(t.text); isVar {
			return Term{Kind: TermVar, Pred: PredEq, Var: name}, nil
		}
		return Term{Kind: TermConst, Pred: PredEq, Val: parseAtom(t.text)}, nil
	default:
		return Term{}, p.errorfAt(t, "expected test term, found %s", t)
	}
}

// parseAction parses one RHS action form starting at '('.
func (p *parser) parseAction() (*Action, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	opTok, err := p.expect(tokAtom, "action name")
	if err != nil {
		return nil, err
	}
	a := &Action{}
	switch opTok.text {
	case "make":
		a.Kind = ActMake
		classTok, err := p.expect(tokAtom, "class name")
		if err != nil {
			return nil, err
		}
		a.Class = classTok.text
		if err := p.parsePairs(a); err != nil {
			return nil, err
		}
	case "modify":
		a.Kind = ActModify
		if err := p.parseCEIndex(a); err != nil {
			return nil, err
		}
		if err := p.parsePairs(a); err != nil {
			return nil, err
		}
	case "remove":
		a.Kind = ActRemove
		if err := p.parseCEIndex(a); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
	case "write":
		a.Kind = ActWrite
		for {
			t := p.peek()
			if t.kind == tokRParen {
				p.next()
				break
			}
			term, err := p.parseRHSTerm()
			if err != nil {
				return nil, err
			}
			a.Args = append(a.Args, term)
		}
	case "halt":
		a.Kind = ActHalt
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
	case "bind":
		a.Kind = ActBind
		varTok, err := p.expect(tokAtom, "variable")
		if err != nil {
			return nil, err
		}
		name, isVar := isVarAtom(varTok.text)
		if !isVar {
			return nil, p.errorfAt(varTok, "bind requires a <variable>, found %s", varTok.text)
		}
		a.Var = name
		term, err := p.parseRHSTerm()
		if err != nil {
			return nil, err
		}
		a.Term = term
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
	default:
		return nil, p.errorfAt(opTok, "unknown action %q", opTok.text)
	}
	return a, nil
}

func (p *parser) parseCEIndex(a *Action) error {
	t, err := p.expect(tokAtom, "condition-element number or <element-variable>")
	if err != nil {
		return err
	}
	if name, isVar := isVarAtom(t.text); isVar {
		a.CEVar = name
		return nil
	}
	v := parseAtom(t.text)
	if v.Kind != NumValue || v.Num != float64(int(v.Num)) || v.Num < 1 {
		return p.errorfAt(t, "condition-element designator must be a positive integer or <variable>, found %s", t.text)
	}
	a.CE = int(v.Num)
	return nil
}

// parsePairs parses ^attr term pairs until ')'.
func (p *parser) parsePairs(a *Action) error {
	for {
		t := p.peek()
		switch t.kind {
		case tokRParen:
			p.next()
			return nil
		case tokCaret:
			p.next()
			attrTok, err := p.expect(tokAtom, "attribute name")
			if err != nil {
				return err
			}
			term, err := p.parseRHSTerm()
			if err != nil {
				return err
			}
			a.Pairs = append(a.Pairs, RHSPair{Attr: attrTok.text, Term: term})
		default:
			return p.errorf("expected ^attribute or ')' in action, found %s", t)
		}
	}
}

// parseRHSTerm parses a constant, variable, (compute ...) expression or
// (crlf) in an action argument slot.
func (p *parser) parseRHSTerm() (RHSTerm, error) {
	t := p.next()
	switch t.kind {
	case tokAtom:
		if name, isVar := isVarAtom(t.text); isVar {
			return RHSTerm{IsVar: true, Var: name}, nil
		}
		return RHSTerm{Val: parseAtom(t.text)}, nil
	case tokLParen:
		head, err := p.expect(tokAtom, "compute or crlf")
		if err != nil {
			return RHSTerm{}, err
		}
		switch head.text {
		case "crlf":
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return RHSTerm{}, err
			}
			return RHSTerm{Crlf: true}, nil
		case "compute":
			expr, err := p.parseCompute()
			if err != nil {
				return RHSTerm{}, err
			}
			return RHSTerm{Compute: expr}, nil
		default:
			return RHSTerm{}, p.errorfAt(head, "unknown RHS function %q (compute|crlf)", head.text)
		}
	default:
		return RHSTerm{}, p.errorfAt(t, "expected value, found %s", t)
	}
}

// parseCompute parses the body of (compute a op b op c ...) after the
// "compute" atom, through the closing ')'.
func (p *parser) parseCompute() (*ComputeExpr, error) {
	expr := &ComputeExpr{}
	wantOperand := true
	for {
		t := p.peek()
		if t.kind == tokRParen {
			p.next()
			if wantOperand || len(expr.Operands) == 0 {
				return nil, p.errorfAt(t, "compute expression ends with an operator or is empty")
			}
			return expr, nil
		}
		if t.kind != tokAtom {
			return nil, p.errorf("expected operand or operator in compute, found %s", t)
		}
		p.next()
		if wantOperand {
			if name, isVar := isVarAtom(t.text); isVar {
				expr.Operands = append(expr.Operands, RHSTerm{IsVar: true, Var: name})
			} else {
				v := parseAtom(t.text)
				if v.Kind != NumValue {
					return nil, p.errorfAt(t, "compute operand %q is not a number or variable", t.text)
				}
				expr.Operands = append(expr.Operands, RHSTerm{Val: v})
			}
			wantOperand = false
			continue
		}
		op, ok := computeOpFromAtom(t.text)
		if !ok {
			return nil, p.errorfAt(t, "expected compute operator, found %q", t.text)
		}
		expr.Ops = append(expr.Ops, op)
		wantOperand = true
	}
}

// parseTopLevelMake parses a top-level (make class ^attr val ...) form,
// which may contain only constants.
func (p *parser) parseTopLevelMake() (*WME, error) {
	classTok, err := p.expect(tokAtom, "class name")
	if err != nil {
		return nil, err
	}
	var fields []Field
	for {
		t := p.peek()
		switch t.kind {
		case tokRParen:
			p.next()
			return NewFact(sym.Intern(classTok.text), fields), nil
		case tokCaret:
			p.next()
			attrTok, err := p.expect(tokAtom, "attribute name")
			if err != nil {
				return nil, err
			}
			valTok, err := p.expect(tokAtom, "constant value")
			if err != nil {
				return nil, err
			}
			if _, isVar := isVarAtom(valTok.text); isVar {
				return nil, p.errorfAt(valTok, "top-level make may not contain variables")
			}
			fields = append(fields, Field{Attr: sym.Intern(attrTok.text), Val: parseAtom(valTok.text)})
		default:
			return nil, p.errorf("expected ^attribute or ')' in make, found %s", t)
		}
	}
}

// parseLiteralize parses (literalize class attr...) after the keyword.
func (p *parser) parseLiteralize(prog *Program) error {
	classTok, err := p.expect(tokAtom, "class name")
	if err != nil {
		return err
	}
	if prog.Literalize == nil {
		prog.Literalize = make(map[string][]string)
	}
	if _, dup := prog.Literalize[classTok.text]; dup {
		return p.errorfAt(classTok, "class %q literalized twice", classTok.text)
	}
	var attrs []string
	for {
		t := p.next()
		switch t.kind {
		case tokRParen:
			prog.Literalize[classTok.text] = attrs
			return nil
		case tokAtom:
			attrs = append(attrs, t.text)
		default:
			return p.errorfAt(t, "expected attribute name or ')' in literalize, found %s", t)
		}
	}
}

// CheckLiteralize verifies that every attribute referenced for a
// declared class — in condition elements, make/modify actions, and
// top-level makes — appears in the class's literalize declaration.
// Classes without declarations are unconstrained, as in OPS5 programs
// that skip literalize.
func (prog *Program) CheckLiteralize() error {
	if len(prog.Literalize) == 0 {
		return nil
	}
	declared := func(class, attr string) bool {
		attrs, ok := prog.Literalize[class]
		if !ok {
			return true
		}
		for _, a := range attrs {
			if a == attr {
				return true
			}
		}
		return false
	}
	for _, p := range prog.Productions {
		for _, ce := range p.LHS {
			for _, at := range ce.Tests {
				if !declared(ce.Class, at.Attr) {
					return fmt.Errorf("ops5: production %s: class %s has no attribute ^%s (see literalize)",
						p.Name, ce.Class, at.Attr)
				}
			}
		}
		for ai, a := range p.RHS {
			if a.Kind != ActMake && a.Kind != ActModify {
				continue
			}
			class := a.Class
			if a.Kind == ActModify {
				class = p.LHS[a.CE-1].Class
			}
			for _, pair := range a.Pairs {
				if !declared(class, pair.Attr) {
					return fmt.Errorf("ops5: production %s action %d: class %s has no attribute ^%s (see literalize)",
						p.Name, ai+1, class, pair.Attr)
				}
			}
		}
	}
	for _, w := range prog.InitialWM {
		for _, f := range w.Fields() {
			attr := sym.Name(f.Attr)
			if !declared(w.Class(), attr) {
				return fmt.Errorf("ops5: top-level make: class %s has no attribute ^%s (see literalize)",
					w.Class(), attr)
			}
		}
	}
	return nil
}
