package expr

import (
	"fmt"
	"math"

	"repro/internal/types"
)

// Env resolves attribute names to values during evaluation; a tuple bound
// to its schema implements it.
type Env interface {
	// AttrValue returns the value of the named attribute and whether it
	// exists.
	AttrValue(name string) (types.Value, bool)
}

// MapEnv is an Env backed by a map, for tests and synthesized scopes.
type MapEnv map[string]types.Value

// AttrValue implements Env.
func (m MapEnv) AttrValue(name string) (types.Value, bool) {
	v, ok := m[name]
	return v, ok
}

// EvalError describes a runtime evaluation failure (division by zero,
// unknown attribute at run time, bad builtin arguments).
type EvalError struct {
	Node Node
	Msg  string
}

// Error implements the error interface.
func (e *EvalError) Error() string {
	return fmt.Sprintf("expr: evaluating %s: %s", e.Node, e.Msg)
}

func evalErrorf(n Node, format string, args ...interface{}) error {
	return &EvalError{Node: n, Msg: fmt.Sprintf(format, args...)}
}

// Eval evaluates an expression against an environment. Null propagates:
// any operator or comparison with a null operand yields null, and a null
// predicate result is treated as false by Restrict (SQL three-valued
// semantics collapsed at the boundary).
func Eval(n Node, env Env) (types.Value, error) {
	switch n := n.(type) {
	case *Lit:
		return n.Val, nil

	case *Ref:
		v, ok := env.AttrValue(n.Name)
		if !ok {
			return types.Null, evalErrorf(n, "unknown attribute %q", n.Name)
		}
		return v, nil

	case *Unary:
		x, err := Eval(n.X, env)
		if err != nil {
			return types.Null, err
		}
		return applyUnary(n, x)

	case *Binary:
		return evalBinary(n, env)

	case *Call:
		b, ok := LookupBuiltin(n.Name)
		if !ok {
			return types.Null, evalErrorf(n, "unknown function %q", n.Name)
		}
		args := make([]types.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := Eval(a, env)
			if err != nil {
				return types.Null, err
			}
			args[i] = v
		}
		return callBuiltin(n, b, args)
	}
	return types.Null, evalErrorf(n, "unknown node type %T", n)
}

func evalBinary(n *Binary, env Env) (types.Value, error) {
	// and/or get short-circuit evaluation, which also gives them
	// Kleene-ish null handling: false and X = false without evaluating X.
	switch n.Op {
	case "and", "or":
		l, err := Eval(n.L, env)
		if err != nil {
			return types.Null, err
		}
		if v, ok := shortCircuit(n, l); ok {
			return v, nil
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return types.Null, err
		}
		return applyLogic(n, l, r)
	}

	l, err := Eval(n.L, env)
	if err != nil {
		return types.Null, err
	}
	r, err := Eval(n.R, env)
	if err != nil {
		return types.Null, err
	}
	return applyBinary(n, l, r)
}

// shortCircuit reports the result of and/or when the left operand alone
// decides it.
func shortCircuit(n *Binary, l types.Value) (types.Value, bool) {
	if l.IsNull() || l.Kind() != types.Bool {
		return types.Null, false
	}
	if n.Op == "and" && !l.Bool() {
		return types.NewBool(false), true
	}
	if n.Op == "or" && l.Bool() {
		return types.NewBool(true), true
	}
	return types.Null, false
}

// applyLogic applies and/or to operands whose left side did not short
// circuit.
func applyLogic(n *Binary, l, r types.Value) (types.Value, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	if l.Kind() != types.Bool || r.Kind() != types.Bool {
		return types.Null, evalErrorf(n, "%s requires bool operands", n.Op)
	}
	if n.Op == "and" {
		return types.NewBool(l.Bool() && r.Bool()), nil
	}
	return types.NewBool(l.Bool() || r.Bool()), nil
}

// Applier returns the operator of a Unary, Binary or Call node as a
// function of its already-evaluated operands, one per child in order,
// with exactly the interpreter's semantics: null propagation, errors
// and their messages, and and/or's short circuit (a right operand the
// interpreter would not evaluate is ignored). It reports false for
// leaves and unknown functions. The columnar kernel in internal/rel
// evaluates the shapes it has no monomorphic loop for through it, so
// the two evaluators share one definition of every operator.
func Applier(n Node) (func(args []types.Value) (types.Value, error), bool) {
	switch n := n.(type) {
	case *Unary:
		return func(args []types.Value) (types.Value, error) { return applyUnary(n, args[0]) }, true
	case *Binary:
		if n.Op == "and" || n.Op == "or" {
			return func(args []types.Value) (types.Value, error) {
				if v, ok := shortCircuit(n, args[0]); ok {
					return v, nil
				}
				return applyLogic(n, args[0], args[1])
			}, true
		}
		return func(args []types.Value) (types.Value, error) { return applyBinary(n, args[0], args[1]) }, true
	case *Call:
		b, ok := LookupBuiltin(n.Name)
		if !ok {
			return nil, false
		}
		return func(args []types.Value) (types.Value, error) { return callBuiltin(n, b, args) }, true
	}
	return nil, false
}

func callBuiltin(n *Call, b builtin, args []types.Value) (types.Value, error) {
	out, err := b.eval(args)
	if err != nil {
		return types.Null, evalErrorf(n, "%v", err)
	}
	return out, nil
}

// applyUnary applies a unary operator to an already-evaluated operand.
// It is shared by the interpreter and, through Applier, by the columnar
// kernel, so the two cannot drift apart on null propagation or errors.
func applyUnary(n *Unary, x types.Value) (types.Value, error) {
	if x.IsNull() {
		return types.Null, nil
	}
	switch n.Op {
	case "-":
		switch x.Kind() {
		case types.Int:
			return types.NewInt(-x.Int()), nil
		case types.Float:
			return types.NewFloat(-x.Float()), nil
		}
		return types.Null, evalErrorf(n, "cannot negate %s", x.Kind())
	case "not":
		if x.Kind() != types.Bool {
			return types.Null, evalErrorf(n, "not requires bool, got %s", x.Kind())
		}
		return types.NewBool(!x.Bool()), nil
	}
	return types.Null, evalErrorf(n, "unknown unary operator %q", n.Op)
}

// applyBinary applies a non-short-circuiting binary operator to already-
// evaluated operands (and/or are shortCircuit and applyLogic). Like
// applyUnary it is the single semantics shared by the interpreter and
// the kernel.
func applyBinary(n *Binary, l, r types.Value) (types.Value, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}

	switch n.Op {
	case "||":
		if l.Kind() != types.Text || r.Kind() != types.Text {
			return types.Null, evalErrorf(n, "|| requires text operands")
		}
		return types.NewText(l.Text() + r.Text()), nil

	case "=", "!=":
		if !comparable(l.Kind(), r.Kind()) {
			return types.Null, evalErrorf(n, "cannot compare %s with %s", l.Kind(), r.Kind())
		}
		c, err := l.Compare(r)
		if err != nil {
			return types.Null, evalErrorf(n, "%v", err)
		}
		if n.Op == "=" {
			return types.NewBool(c == 0), nil
		}
		return types.NewBool(c != 0), nil

	case "<", "<=", ">", ">=":
		c, err := l.Compare(r)
		if err != nil {
			return types.Null, evalErrorf(n, "%v", err)
		}
		var out bool
		switch n.Op {
		case "<":
			out = c < 0
		case "<=":
			out = c <= 0
		case ">":
			out = c > 0
		case ">=":
			out = c >= 0
		}
		return types.NewBool(out), nil

	case "+", "-", "*", "/", "%":
		return evalArith(n, l, r)
	}
	return types.Null, evalErrorf(n, "unknown operator %q", n.Op)
}

func evalArith(n *Binary, l, r types.Value) (types.Value, error) {
	// Date arithmetic first.
	if l.Kind() == types.Date || r.Kind() == types.Date {
		switch {
		case n.Op == "+" && l.Kind() == types.Date && r.Kind() == types.Int:
			return types.NewDate(l.DateDays() + r.Int()), nil
		case n.Op == "+" && l.Kind() == types.Int && r.Kind() == types.Date:
			return types.NewDate(l.Int() + r.DateDays()), nil
		case n.Op == "-" && l.Kind() == types.Date && r.Kind() == types.Int:
			return types.NewDate(l.DateDays() - r.Int()), nil
		case n.Op == "-" && l.Kind() == types.Date && r.Kind() == types.Date:
			return types.NewInt(l.DateDays() - r.DateDays()), nil
		}
		return types.Null, evalErrorf(n, "unsupported date arithmetic %s %s %s", l.Kind(), n.Op, r.Kind())
	}

	if l.Kind() == types.Int && r.Kind() == types.Int {
		a, b := l.Int(), r.Int()
		switch n.Op {
		case "+":
			return types.NewInt(a + b), nil
		case "-":
			return types.NewInt(a - b), nil
		case "*":
			return types.NewInt(a * b), nil
		case "/":
			if b == 0 {
				return types.Null, evalErrorf(n, "division by zero")
			}
			return types.NewInt(a / b), nil
		case "%":
			if b == 0 {
				return types.Null, evalErrorf(n, "modulo by zero")
			}
			return types.NewInt(a % b), nil
		}
	}

	af, aok := l.AsFloat()
	bf, bok := r.AsFloat()
	if !aok || !bok {
		return types.Null, evalErrorf(n, "%s requires numeric operands, got %s and %s", n.Op, l.Kind(), r.Kind())
	}
	switch n.Op {
	case "+":
		return types.NewFloat(af + bf), nil
	case "-":
		return types.NewFloat(af - bf), nil
	case "*":
		return types.NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return types.Null, evalErrorf(n, "division by zero")
		}
		return types.NewFloat(af / bf), nil
	case "%":
		if bf == 0 {
			return types.Null, evalErrorf(n, "modulo by zero")
		}
		return types.NewFloat(math.Mod(af, bf)), nil
	}
	return types.Null, evalErrorf(n, "unknown arithmetic operator %q", n.Op)
}

// EvalPredicate evaluates a predicate, collapsing null to false — this is
// the boundary semantics Restrict and Join use.
func EvalPredicate(n Node, env Env) (bool, error) {
	v, err := Eval(n, env)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != types.Bool {
		return false, evalErrorf(n, "predicate produced %s, want bool", v.Kind())
	}
	return v.Bool(), nil
}
