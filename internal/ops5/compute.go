package ops5

import (
	"fmt"
	"math"
	"strings"
)

// ComputeOp is one arithmetic operator usable inside (compute ...).
type ComputeOp uint8

// The OPS5 compute operators.
const (
	OpAdd ComputeOp = iota // +
	OpSub                  // -
	OpMul                  // *
	OpDiv                  // //
	OpMod                  // \\
)

// String renders the operator in OPS5 surface syntax.
func (o ComputeOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "//"
	case OpMod:
		return "\\\\"
	default:
		return "?"
	}
}

// computeOpFromAtom recognises an operator atom.
func computeOpFromAtom(text string) (ComputeOp, bool) {
	switch text {
	case "+":
		return OpAdd, true
	case "-":
		return OpSub, true
	case "*":
		return OpMul, true
	case "//":
		return OpDiv, true
	case "\\\\", "\\":
		return OpMod, true
	default:
		return 0, false
	}
}

// ComputeExpr is an OPS5 (compute ...) arithmetic expression: operands
// separated by operators with no precedence, evaluated right to left as
// in the original OPS5 (so (compute 2 * 3 + 4) is 2 * (3 + 4) = 14).
type ComputeExpr struct {
	Operands []RHSTerm   // len(Operands) == len(Ops) + 1
	Ops      []ComputeOp // operator i sits between operands i and i+1
}

// String renders the expression in OPS5 surface syntax.
func (c *ComputeExpr) String() string {
	var b strings.Builder
	b.WriteString("(compute")
	for i, op := range c.Operands {
		b.WriteString(" " + op.String())
		if i < len(c.Ops) {
			b.WriteString(" " + c.Ops[i].String())
		}
	}
	b.WriteString(")")
	return b.String()
}

// Eval evaluates the expression right to left. resolve maps each
// operand term to its value; every operand must resolve to a number.
// The operand is passed in place, so a resolver that recurses into a
// nested expression copies nothing.
func (c *ComputeExpr) Eval(resolve func(*RHSTerm) (Value, error)) (Value, error) {
	if len(c.Operands) != len(c.Ops)+1 {
		return Value{}, fmt.Errorf("ops5: malformed compute expression %s", c)
	}
	// Right-to-left: start from the last operand and fold leftwards.
	acc, err := c.number(resolve, &c.Operands[len(c.Operands)-1])
	if err != nil {
		return Value{}, err
	}
	for i := len(c.Ops) - 1; i >= 0; i-- {
		left, err := c.number(resolve, &c.Operands[i])
		if err != nil {
			return Value{}, err
		}
		switch c.Ops[i] {
		case OpAdd:
			acc = left + acc
		case OpSub:
			acc = left - acc
		case OpMul:
			acc = left * acc
		case OpDiv:
			if acc == 0 {
				return Value{}, fmt.Errorf("ops5: division by zero in %s", c)
			}
			acc = left / acc
		case OpMod:
			if acc == 0 {
				return Value{}, fmt.Errorf("ops5: modulo by zero in %s", c)
			}
			acc = math.Mod(left, acc)
		}
		// An overflowed number cannot be compared, logged or sent to a
		// client; like a zero divisor it ends the firing.
		if math.IsInf(acc, 0) || math.IsNaN(acc) {
			return Value{}, fmt.Errorf("ops5: non-finite result in %s", c)
		}
	}
	return Num(acc), nil
}

func (c *ComputeExpr) number(resolve func(*RHSTerm) (Value, error), t *RHSTerm) (float64, error) {
	v, err := resolve(t)
	if err != nil {
		return 0, err
	}
	if v.Kind != NumValue {
		return 0, fmt.Errorf("ops5: compute operand %s is not a number (got %s)", t, v)
	}
	return v.Num, nil
}
