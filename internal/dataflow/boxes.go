package dataflow

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/display"
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/types"
)

// registerBuiltins installs every builtin box kind: the database
// operations of Figure 3, the program-structure boxes of Figure 4.1
// (T, switch, partition), the attribute operations of Figure 5, the
// drill-down operations of Figure 6, and the group operations of
// Section 7.
func registerBuiltins(r *Registry) {
	registerDatabaseBoxes(r)
	registerAttrBoxes(r)
	registerVizBoxes(r)
	registerLiftBoxes(r)
	registerScalarBoxes(r)
	registerMoreDatabaseBoxes(r)
}

// fixedPorts returns a Ports function for kinds whose shape does not
// depend on parameters.
func fixedPorts(in, out []PortType) func(Params) ([]PortType, []PortType, error) {
	return func(Params) ([]PortType, []PortType, error) {
		return append([]PortType(nil), in...), append([]PortType(nil), out...), nil
	}
}

// asExtended asserts an R-port input value.
func asExtended(v Value) (*display.Extended, error) {
	e, ok := v.(*display.Extended)
	if !ok {
		return nil, fmt.Errorf("expected a relation input, got %T", v)
	}
	return e, nil
}

// asComposite asserts a C-port input value.
func asComposite(v Value) (*display.Composite, error) {
	c, ok := v.(*display.Composite)
	if !ok {
		return nil, fmt.Errorf("expected a composite input, got %T", v)
	}
	return c, nil
}

// rederive rebuilds extended-relation metadata over a relation produced
// by a relational operator: the default sequence layout follows the new
// relation's attributes; custom layouts survive when their location
// attributes do, and otherwise fall back to the default so the result
// always has a valid visual representation (principle 1).
func rederive(in *display.Extended, out *rel.Relation) *display.Extended {
	if in.SeqLayout {
		return display.NewDefaultExtended(in.Label, out, 80)
	}
	for _, a := range in.LocAttrs {
		if k, ok := out.AttrKind(a); !ok || !k.Numeric() {
			return display.NewDefaultExtended(in.Label, out, 80)
		}
	}
	e := in.Clone()
	e.Rel = out
	return e
}

// parsePortType inverts PortType.String for the T box's type parameter.
func parsePortType(s string) (PortType, error) {
	switch s {
	case "R":
		return RType, nil
	case "C":
		return CType, nil
	case "G":
		return GType, nil
	}
	if rest, ok := strings.CutPrefix(s, "scalar:"); ok {
		k, err := types.ParseKind(rest)
		if err != nil {
			return PortType{}, err
		}
		return ScalarType(k), nil
	}
	return PortType{}, fmt.Errorf("unknown port type %q", s)
}

func registerDatabaseBoxes(r *Registry) {
	r.MustRegister(&Kind{
		Name:          "table",
		Doc:           "Add Table: produce the tuples of a named base relation with the default display (Figure 3).",
		ExampleParams: Params{"name": "T"},
		Ports:         fixedPorts(nil, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			name, err := p.Need("name")
			if err != nil {
				return nil, err
			}
			if fc.Tables == nil {
				return nil, fmt.Errorf("no table source attached to this program")
			}
			t, err := fc.Tables.Table(name)
			if err != nil {
				return nil, err
			}
			return []Value{display.NewDefaultExtended(name, t, 80)}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "project",
		Doc:           "Project: standard database projection; 'attrs' lists the fields to keep (Figure 3).",
		ExampleParams: Params{"attrs": "a,b"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			attrs := p.List("attrs")
			if len(attrs) == 0 {
				return nil, fmt.Errorf("project needs attrs=")
			}
			out, err := rel.Project(e.Rel, attrs)
			if err != nil {
				return nil, err
			}
			return []Value{rederive(e, out)}, nil
		},
		FireDelta: func(ctx context.Context, fc *FireContext, p Params, d *DeltaFire) ([]Value, *rel.TupleDelta, bool, error) {
			attrs := p.List("attrs")
			if len(attrs) == 0 {
				return nil, nil, false, nil
			}
			return fusedBoxDelta(ctx, d, rel.FusedOp{Project: attrs})
		},
	})

	r.MustRegister(&Kind{
		Name:          "restrict",
		Doc:           "Restrict: filter to tuples satisfying 'pred' (Figure 3).",
		ExampleParams: Params{"pred": "true"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			src, err := p.Need("pred")
			if err != nil {
				return nil, err
			}
			pred, err := expr.Parse(src)
			if err != nil {
				return nil, err
			}
			out, err := rel.Restrict(e.Rel, pred, fc.Exec)
			if err != nil {
				return nil, err
			}
			return []Value{rederive(e, out)}, nil
		},
		FireDelta: func(ctx context.Context, fc *FireContext, p Params, d *DeltaFire) ([]Value, *rel.TupleDelta, bool, error) {
			pred, ok := parsePredParam(p)
			if !ok {
				return nil, nil, false, nil
			}
			return fusedBoxDelta(ctx, d, rel.FusedOp{Pred: pred})
		},
	})

	r.MustRegister(&Kind{
		Name:          "sample",
		Doc:           "Sample: retain each tuple with probability 'p' (Figure 3); seeded for reproducibility.",
		ExampleParams: Params{"p": "0.1"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			prob, err := p.Float("p", 0.1)
			if err != nil {
				return nil, err
			}
			seed, err := p.Int("seed", 1)
			if err != nil {
				return nil, err
			}
			out, err := rel.Sample(e.Rel, prob, int64(seed))
			if err != nil {
				return nil, err
			}
			return []Value{rederive(e, out)}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "join",
		Doc:           "Join: theta-join of two relations under 'pred'; 'strategy' is auto, hash, or loop (Figure 3).",
		ExampleParams: Params{"pred": "true"},
		Ports:         fixedPorts([]PortType{RType, RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			l, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			rr, err := asExtended(in[1])
			if err != nil {
				return nil, err
			}
			src, err := p.Need("pred")
			if err != nil {
				return nil, err
			}
			pred, err := expr.Parse(src)
			if err != nil {
				return nil, err
			}
			strategy := rel.JoinAuto
			switch p.Str("strategy", "auto") {
			case "auto":
			case "hash":
				strategy = rel.JoinHash
			case "loop":
				strategy = rel.JoinNestedLoop
			default:
				return nil, fmt.Errorf("unknown join strategy %q", p.Str("strategy", ""))
			}
			out, err := rel.Join(l.Rel, rr.Rel, pred, strategy, fc.Exec)
			if err != nil {
				return nil, err
			}
			label := l.Label + "⋈" + rr.Label
			return []Value{display.NewDefaultExtended(label, out, 80)}, nil
		},
		FireDelta: func(_ context.Context, fc *FireContext, p Params, d *DeltaFire) ([]Value, *rel.TupleDelta, bool, error) {
			switch p.Str("strategy", "auto") {
			case "auto", "hash":
			default:
				return nil, nil, false, nil // nested loop is delta-opaque
			}
			pred, ok := parsePredParam(p)
			if !ok {
				return nil, nil, false, nil
			}
			l, err := asExtended(d.In[0])
			if err != nil {
				return nil, nil, false, nil
			}
			rr, err := asExtended(d.In[1])
			if err != nil {
				return nil, nil, false, nil
			}
			old, err := asExtended(d.Old[0])
			if err != nil {
				return nil, nil, false, nil
			}
			st, _ := (*d.State).(*rel.JoinState)
			if st == nil {
				oldL, err := asExtended(d.OldIn[0])
				if err != nil {
					return nil, nil, false, nil
				}
				oldR, err := asExtended(d.OldIn[1])
				if err != nil {
					return nil, nil, false, nil
				}
				var ok bool
				if st, ok = rel.BuildJoinState(oldL.Rel, oldR.Rel, old.Rel, pred); !ok {
					return nil, nil, false, nil
				}
			}
			outRel, outDelta, ok := st.Apply(l.Rel, rr.Rel, d.InDelta[0], d.InDelta[1])
			if !ok {
				*d.State = nil // poisoned; rebuild after the refire
				return nil, nil, false, nil
			}
			*d.State = st
			label := l.Label + "⋈" + rr.Label
			return []Value{display.NewDefaultExtended(label, outRel, 80)}, outDelta, true, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "sort",
		Doc:           "Sort: order tuples by 'attr'; 'desc' reverses.",
		ExampleParams: Params{"attr": "a"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			attr, err := p.Need("attr")
			if err != nil {
				return nil, err
			}
			desc, err := p.Bool("desc", false)
			if err != nil {
				return nil, err
			}
			out, err := rel.Sort(e.Rel, attr, desc)
			if err != nil {
				return nil, err
			}
			return []Value{rederive(e, out)}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "t",
		Doc:           "T: pass the input unchanged to both outputs, so a viewer can tap any edge (Section 4.1).",
		ExampleParams: Params{"type": "R"},
		Ports: func(p Params) ([]PortType, []PortType, error) {
			pt, err := parsePortType(p.Str("type", "R"))
			if err != nil {
				return nil, nil, err
			}
			return []PortType{pt}, []PortType{pt, pt}, nil
		},
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			return []Value{in[0], in[0]}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "switch",
		Doc:           "Switch: route tuples satisfying 'pred' to output 0 and the rest to output 1 — the multi-output control flow Tioga lacked (Section 1.1 problem 3).",
		ExampleParams: Params{"pred": "true"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType, RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			src, err := p.Need("pred")
			if err != nil {
				return nil, err
			}
			pred, err := expr.Parse(src)
			if err != nil {
				return nil, err
			}
			notPred := &expr.Unary{Op: "not", X: pred}
			parts, err := rel.Partition(e.Rel, []expr.Node{pred, notPred}, fc.Exec)
			if err != nil {
				return nil, err
			}
			return []Value{rederive(e, parts[0]), rederive(e, parts[1])}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "partition",
		Doc:           "Partition: split the input by ';'-separated predicates in 'preds', one output per predicate.",
		ExampleParams: Params{"preds": "true"},
		Ports: func(p Params) ([]PortType, []PortType, error) {
			n := len(splitPreds(p.Str("preds", "")))
			if n == 0 {
				return nil, nil, fmt.Errorf("partition needs preds=")
			}
			outs := make([]PortType, n)
			for i := range outs {
				outs[i] = RType
			}
			return []PortType{RType}, outs, nil
		},
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			srcs := splitPreds(p.Str("preds", ""))
			preds := make([]expr.Node, len(srcs))
			for i, s := range srcs {
				preds[i], err = expr.Parse(s)
				if err != nil {
					return nil, fmt.Errorf("partition predicate %d: %w", i, err)
				}
			}
			parts, err := rel.Partition(e.Rel, preds, fc.Exec)
			if err != nil {
				return nil, err
			}
			out := make([]Value, len(parts))
			for i, part := range parts {
				pe := rederive(e, part)
				pe.Label = fmt.Sprintf("%s[%s]", e.Label, srcs[i])
				out[i] = pe
			}
			return out, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "viewer",
		Doc:           "Viewer: translate a displayable into screen output (Section 2). A sink; the canvas machinery demands its input.",
		ExampleParams: Params{},
		Ports:         fixedPorts([]PortType{GType}, nil),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			return nil, nil
		},
	})
}

// splitPreds splits a ';'-separated predicate list, trimming blanks.
func splitPreds(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ";") {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// registerMoreDatabaseBoxes installs the convenience relational boxes
// beyond Figure 3's minimum: union, distinct, and limit.
func registerMoreDatabaseBoxes(r *Registry) {
	r.MustRegister(&Kind{
		Name:          "union",
		Doc:           "Union: concatenate two relations with equal schemas.",
		ExampleParams: Params{},
		Ports:         fixedPorts([]PortType{RType, RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			a, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			b, err := asExtended(in[1])
			if err != nil {
				return nil, err
			}
			out, err := rel.Union(a.Rel, b.Rel)
			if err != nil {
				return nil, err
			}
			return []Value{rederive(a, out)}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "distinct",
		Doc:           "Distinct: drop duplicate tuples, keeping first occurrences.",
		ExampleParams: Params{},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			return []Value{rederive(e, rel.Distinct(e.Rel))}, nil
		},
	})

	r.MustRegister(&Kind{
		Name:          "limit",
		Doc:           "Limit: keep the first 'n' tuples, a quick-look alternative to Sample.",
		ExampleParams: Params{"n": "100"},
		Ports:         fixedPorts([]PortType{RType}, []PortType{RType}),
		Fire: func(fc *FireContext, p Params, in []Value) ([]Value, error) {
			e, err := asExtended(in[0])
			if err != nil {
				return nil, err
			}
			n, err := p.Int("n", 100)
			if err != nil {
				return nil, err
			}
			out, err := rel.Limit(e.Rel, n)
			if err != nil {
				return nil, err
			}
			return []Value{rederive(e, out)}, nil
		},
	})
}
