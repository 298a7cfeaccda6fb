package dataflow

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/types"
)

// Scalar-valued edges: "a box input or output may be a scalar value
// (e.g., a runtime parameter supplied by the user)" (Section 2). The
// const box is the scalar source — the runtime parameter the user sets
// from the menu — and parameterized boxes take scalar inputs so that a
// single dial drives several places in a program (wire one const through
// T boxes).

func registerScalarBoxes(r *Registry) {
	r.MustRegister(&Kind{
		Name:          "const",
		Doc:           "Runtime parameter: produce the scalar 'value' of type 'type' on the output (Section 2 scalar edges).",
		ExampleParams: Params{"type": "float", "value": "1"},
		Ports: func(p Params) ([]PortType, []PortType, error) {
			k, err := types.ParseKind(p.Str("type", "float"))
			if err != nil {
				return nil, nil, err
			}
			return nil, []PortType{ScalarType(k)}, nil
		},
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			k, err := types.ParseKind(p.Str("type", "float"))
			if err != nil {
				return nil, err
			}
			raw, err := p.Need("value")
			if err != nil {
				return nil, err
			}
			v, err := types.Parse(k, raw)
			if err != nil {
				return nil, err
			}
			return []Value{v}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "threshold",
		Doc:           "Parameterized Restrict: keep tuples whose numeric attribute 'attr' satisfies 'op' against the scalar on input 1 (a runtime parameter).",
		ExampleParams: Params{"attr": "a", "op": "<="},
		Ports:         fixedPorts([]PortType{RType, ScalarType(types.Float)}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			bound, ok := in[1].(types.Value)
			if !ok {
				return nil, fmt.Errorf("threshold: input 1 is not a scalar (%T)", in[1])
			}
			f, fok := bound.AsFloat()
			if !fok {
				return nil, fmt.Errorf("threshold: parameter is not numeric")
			}
			attr, err := p.Need("attr")
			if err != nil {
				return nil, err
			}
			op := p.Str("op", "<=")
			switch op {
			case "<", "<=", ">", ">=", "=", "!=":
			default:
				return nil, fmt.Errorf("threshold: unknown op %q", op)
			}
			pred := &expr.Binary{
				Op: op,
				L:  &expr.Ref{Name: attr},
				R:  &expr.Lit{Val: types.NewFloat(f)},
			}
			out, err := rel.Restrict(e.Rel, pred, fc.Exec)
			if err != nil {
				return nil, err
			}
			return []Value{rederive(e, out)}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "samplep",
		Doc:           "Parameterized Sample: retain tuples with the probability supplied on the scalar input 1 — a live interactivity dial.",
		ExampleParams: Params{},
		Ports:         fixedPorts([]PortType{RType, ScalarType(types.Float)}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			prob, ok := in[1].(types.Value)
			if !ok {
				return nil, fmt.Errorf("samplep: input 1 is not a scalar (%T)", in[1])
			}
			f, fok := prob.AsFloat()
			if !fok {
				return nil, fmt.Errorf("samplep: probability is not numeric")
			}
			seed, err := p.Int("seed", 1)
			if err != nil {
				return nil, err
			}
			out, err := rel.Sample(e.Rel, f, int64(seed))
			if err != nil {
				return nil, err
			}
			return []Value{rederive(e, out)}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "count",
		Doc:           "Aggregate a relation to its cardinality as a scalar int output — a scalar-producing displayable consumer.",
		ExampleParams: Params{},
		Ports:         fixedPorts([]PortType{RType}, []PortType{ScalarType(types.Int)}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			return []Value{types.NewInt(int64(e.Rel.Len()))}, nil
		},
	})
}
