package rel

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// This file is the columnar kernel, the fast one of the two expression
// evaluators (the other is the expr.Eval interpreter, the semantics of
// record and the differential oracle). It lowers an expression to loops
// over a chunk's contiguous typed lanes (internal/rel/chunk.go),
// producing value lanes and selection bitmaps instead of per-row values.
// It is total over the checked expression language: the common numeric,
// boolean and Text-equality shapes get monomorphic loops, and every
// other shape runs through one generic per-row node that calls the
// interpreter's own operator (expr.Applier) on values read from its
// children's lanes.
//
// Exactness argument. Append and Update enforce schema kinds, so at run
// time every stored value has its declared kind or is null; the static
// kinds the kernel computes are therefore the kinds its lanes hold. A
// row the kernel cannot reproduce exactly is flagged in the vector's
// error bitmap: a runtime error (division or modulo by zero, a failing
// builtin), a generic node whose result is not of its static kind (an
// if() whose branches mix Int and Float, for example), or an error
// inside a computed attribute's definition, which the interpreter turns
// into null. Flagged rows re-evaluate row-wise through the interpreter
// in ascending order, which reproduces the exact value or error and
// preserves the "lowest failing row reports first" determinism of a
// serial scan. Everything else is bitmap algebra chosen to mirror the
// interpreter bit for bit:
//
//   - null propagation: null_out = null_l | null_r for every non-and/or
//     operator, nulls collapsed to false at the predicate boundary;
//   - and/or: the interpreter's short-circuit Kleene forms, expressed
//     as  and: t' = tl&tr, n' = nl | (tl&nr);  or: t' = tl | (fl&tr),
//     n' = nl | (fl&nr)  with f = ^(t|n|e) — including the asymmetric
//     error rule that a short-circuited right side cannot raise;
//   - arithmetic: Int×Int stays int64 with Go's wrapping overflow and
//     truncating division, exactly evalArith's operations; any Int/Float
//     mix promotes through float64 just as AsFloat does;
//   - comparisons: types.Compare orders numeric kinds by three-way
//     float64 comparison (under which NaN is "equal" to everything), so
//     the kernel compares float64 lanes with the matching predicates:
//     <: a<b, <=: !(a>b), =: !(a<b)&&!(a>b), and so on — never native
//     int comparisons, which would diverge past 2^53.
//
// Computed attributes inline their definitions recursively with a
// per-chunk memo.

// ---------------------------------------------------------------------
// Bitmaps.

// kbits is a row bitmap. Word counts follow the producing context's row
// count; binary combinators run over the shorter operand (a constant
// vector is sized for the largest chunk, the last chunk of a relation is
// shorter). Bits at or above the consumer's row count are meaningless
// and every consuming loop is bounded, so trailing garbage is harmless.
// A nil kbits means "no bits set" and may be returned shared by the
// combinators; treat every kbits as immutable once produced.
type kbits []uint64

func newKbits(n int) kbits { return make(kbits, (n+63)/64) }

func onesKbits(n int) kbits {
	b := newKbits(n)
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}

func (b kbits) set(i int)       { b[i>>6] |= 1 << (uint(i) & 63) }
func (b kbits) test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// kAny reports whether any bit is set (trailing garbage included — use
// only as a fast-path gate, never for correctness).
func kAny(b kbits) bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

func minWords(a, b kbits) int {
	if len(a) < len(b) {
		return len(a)
	}
	return len(b)
}

// kOr returns a|b; nil operands pass the other through unchanged.
func kOr(a, b kbits) kbits {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(kbits, minWords(a, b))
	for i := range out {
		out[i] = a[i] | b[i]
	}
	return out
}

// kAnd returns a&b; nil if either operand is nil.
func kAnd(a, b kbits) kbits {
	if a == nil || b == nil {
		return nil
	}
	out := make(kbits, minWords(a, b))
	for i := range out {
		out[i] = a[i] & b[i]
	}
	return out
}

// kAndNot returns a&^b.
func kAndNot(a, b kbits) kbits {
	if a == nil || b == nil {
		return a
	}
	out := make(kbits, minWords(a, b))
	for i := range out {
		out[i] = a[i] &^ b[i]
	}
	return out
}

// kNot3 returns ^(a|b|c) over a's word count (a must be non-nil; b and
// c may be nil).
func kNot3(a, b, c kbits) kbits {
	out := make(kbits, len(a))
	for i := range out {
		w := a[i]
		if b != nil && i < len(b) {
			w |= b[i]
		}
		if c != nil && i < len(c) {
			w |= c[i]
		}
		out[i] = ^w
	}
	return out
}

// ---------------------------------------------------------------------
// Vectors.

// kvec is one expression node's value over a chunk: a typed lane plus
// null and error bitmaps. Int, Date share the int64 lane; Bool is held
// as bitmaps (t = true rows) rather than a lane; Invalid (the kind of a
// null literal) has no lane and every row null. The three bitmaps are
// pairwise disjoint: an error row is neither null nor true, a null row
// is not true. Lane slots under a null or error bit are garbage.
type kvec struct {
	kind   types.Kind
	ints   []int64
	floats []float64
	strs   []string
	t      kbits // Bool only; always non-nil for Bool vectors
	null   kbits // nil = no nulls
	errs   kbits // nil = no rows for the interpreter to redo
}

// value reassembles row i as a types.Value; the row must not be an
// error row.
func (v *kvec) value(i int) types.Value {
	if v.null != nil && v.null.test(i) {
		return types.Null
	}
	switch v.kind {
	case types.Int:
		return types.NewInt(v.ints[i])
	case types.Date:
		return types.NewDate(v.ints[i])
	case types.Float:
		return types.NewFloat(v.floats[i])
	case types.Text:
		return types.NewText(v.strs[i])
	case types.Bool:
		return types.NewBool(v.t != nil && v.t.test(i))
	}
	return types.Null
}

// newKvec returns an all-false, null-free vector of kind over n rows
// with its lane allocated (zero-filled, per the kvec invariant).
func newKvec(kind types.Kind, n int) *kvec {
	out := &kvec{kind: kind}
	switch kind {
	case types.Int, types.Date:
		out.ints = make([]int64, n)
	case types.Float:
		out.floats = make([]float64, n)
	case types.Text:
		out.strs = make([]string, n)
	case types.Bool:
		out.t = newKbits(n)
	}
	return out
}

// kctx is the per-chunk evaluation context. memo caches computed-
// attribute vectors by definition node for the current chunk.
type kctx struct {
	c    *Chunk
	n    int
	memo map[expr.Node]*kvec
}

func (kc *kctx) reset(c *Chunk) {
	kc.c, kc.n, kc.memo = c, c.Rows(), nil
}

// kfn evaluates one compiled node over the context's chunk.
type kfn func(kc *kctx) *kvec

// kernProg is a kernel-compiled expression of static kind kind.
type kernProg struct {
	root kfn
	kind types.Kind
}

// kernScope resolves attribute names for the kernel compiler: stored
// columns map (through colMap when the caller's name space is a fused
// shape) to chunk column ordinals and their schema kinds; computed
// attributes yield their definitions for inlining.
type kernScope struct {
	schema   *Schema
	colMap   []int // nil = identity
	computed []Computed
}

func (s kernScope) resolve(name string) (ord int, kind types.Kind, def expr.Node, ok bool) {
	if i := s.schema.Index(name); i >= 0 {
		ord = i
		if s.colMap != nil {
			ord = s.colMap[i]
		}
		return ord, s.schema.Col(i).Kind, nil, true
	}
	for _, c := range s.computed {
		if c.Name == name {
			return -1, c.Kind, c.Expr, true
		}
	}
	return -1, types.Invalid, nil, false
}

// AttrKind implements expr.Scope, so generic nodes take their static
// kind from expr.Check.
func (s kernScope) AttrKind(name string) (types.Kind, bool) {
	_, kind, _, ok := s.resolve(name)
	return kind, ok
}

// kernelCompile compiles n to a chunk kernel whose constant vectors are
// sized for maxRows rows, the largest chunk it will see. It reports
// false only for an expression that does not type-check against scope
// (callers check first, so the interpreter then reports the error).
func kernelCompile(n expr.Node, scope kernScope, maxRows int) (*kernProg, bool) {
	c := &kernCompiler{scope: scope, maxRows: maxRows}
	fn, kind, _, ok := c.compile(n)
	if !ok {
		return nil, false
	}
	obs.Inc(obs.RelCompile)
	return &kernProg{root: fn, kind: kind}, true
}

// ---------------------------------------------------------------------
// Compiler.

type kernCompiler struct {
	scope   kernScope
	maxRows int
	depth   int
}

// compile lowers one node, folding constant subtrees to a broadcast
// vector built once at compile time (errors included — a constant 1/0
// becomes an all-error vector whose rows all fall back, reproducing the
// interpreter's first-row error).
func (c *kernCompiler) compile(n expr.Node) (kfn, types.Kind, bool, bool) {
	fn, kind, konst, ok := c.compileNode(n)
	if !ok {
		return nil, types.Invalid, false, false
	}
	if konst {
		v := fn(&kctx{n: 1})
		bc := c.broadcast(v, kind)
		return func(*kctx) *kvec { return bc }, kind, true, true
	}
	return fn, kind, false, true
}

// broadcast expands a single-row vector to maxRows rows.
func (c *kernCompiler) broadcast(v *kvec, kind types.Kind) *kvec {
	out := newKvec(kind, c.maxRows)
	switch {
	case v.errs != nil && v.errs.test(0):
		out.errs = onesKbits(c.maxRows)
	case kind == types.Invalid || (v.null != nil && v.null.test(0)):
		out.null = onesKbits(c.maxRows)
	case kind == types.Int || kind == types.Date:
		for i := range out.ints {
			out.ints[i] = v.ints[0]
		}
	case kind == types.Float:
		for i := range out.floats {
			out.floats[i] = v.floats[0]
		}
	case kind == types.Text:
		for i := range out.strs {
			out.strs[i] = v.strs[0]
		}
	case kind == types.Bool:
		if v.t.test(0) {
			out.t = onesKbits(c.maxRows)
		}
	}
	return out
}

func isIF(k types.Kind) bool { return k == types.Int || k == types.Float }

func isNumericK(k types.Kind) bool {
	return k == types.Int || k == types.Float || k == types.Date
}

func (c *kernCompiler) compileNode(n expr.Node) (kfn, types.Kind, bool, bool) {
	switch n := n.(type) {
	case *expr.Lit:
		v := n.Val
		kind := v.Kind()
		single := newKvec(kind, 1)
		switch kind {
		case types.Int:
			single.ints[0] = v.Int()
		case types.Date:
			single.ints[0] = v.DateDays()
		case types.Float:
			single.floats[0] = v.Float()
		case types.Text:
			single.strs[0] = v.Text()
		case types.Bool:
			if v.Bool() {
				single.t.set(0)
			}
		default:
			single.null = onesKbits(1)
		}
		return func(*kctx) *kvec { return single }, kind, true, true

	case *expr.Ref:
		ord, kind, def, ok := c.scope.resolve(n.Name)
		if !ok {
			return nil, types.Invalid, false, false
		}
		if def != nil {
			return c.compileComputed(def)
		}
		switch kind {
		case types.Int, types.Float, types.Date, types.Text, types.Bool:
		default:
			return nil, types.Invalid, false, false
		}
		return func(kc *kctx) *kvec {
			cv := &kc.c.cols[ord]
			words := (kc.n + 63) / 64
			null := make(kbits, words)
			for w := 0; w < words; w++ {
				null[w] = ^cv.valid[w]
			}
			out := &kvec{kind: kind, null: null}
			switch kind {
			case types.Int, types.Date:
				out.ints = cv.ints
			case types.Float:
				out.floats = cv.floats
			case types.Text:
				out.strs = cv.strs
			case types.Bool:
				t := make(kbits, words)
				lane := cv.ints
				for i := 0; i < kc.n; i++ {
					if lane[i] != 0 {
						t.set(i)
					}
				}
				out.t = kAndNot(t, null)
			}
			return out
		}, kind, false, true

	case *expr.Unary:
		xf, kind, konst, ok := c.compile(n.X)
		if !ok {
			return nil, types.Invalid, false, false
		}
		switch {
		case n.Op == "-" && kind == types.Int:
			return func(kc *kctx) *kvec {
				x := xf(kc)
				res := make([]int64, kc.n)
				lane := x.ints[:kc.n]
				for i := range res {
					res[i] = -lane[i]
				}
				return &kvec{kind: types.Int, ints: res, null: x.null, errs: x.errs}
			}, types.Int, konst, true
		case n.Op == "-" && kind == types.Float:
			return func(kc *kctx) *kvec {
				x := xf(kc)
				res := make([]float64, kc.n)
				lane := x.floats[:kc.n]
				for i := range res {
					res[i] = -lane[i]
				}
				return &kvec{kind: types.Float, floats: res, null: x.null, errs: x.errs}
			}, types.Float, konst, true
		case n.Op == "not" && kind == types.Bool:
			return func(kc *kctx) *kvec {
				x := xf(kc)
				return &kvec{kind: types.Bool, t: kNot3(x.t, x.null, x.errs), null: x.null, errs: x.errs}
			}, types.Bool, konst, true
		}
		return c.generic(n, konst, xf)

	case *expr.Binary:
		lf, lk, lko, ok := c.compile(n.L)
		if !ok {
			return nil, types.Invalid, false, false
		}
		rf, rk, rko, ok := c.compile(n.R)
		if !ok {
			return nil, types.Invalid, false, false
		}
		konst := lko && rko
		switch n.Op {
		case "and", "or":
			if lk != types.Bool || rk != types.Bool {
				break
			}
			isAnd := n.Op == "and"
			return func(kc *kctx) *kvec {
				l, r := lf(kc), rf(kc)
				out := &kvec{kind: types.Bool}
				if isAnd {
					// false-l short-circuits: r's errors and nulls only
					// matter where l is true or null.
					out.errs = kOr(l.errs, kAnd(kOr(l.t, l.null), r.errs))
					out.null = kAndNot(kOr(l.null, kAnd(l.t, r.null)), out.errs)
					out.t = kAnd(l.t, r.t)
				} else {
					// true-l short-circuits: r matters where l is false
					// or null (null-l still propagates r's errors).
					fl := kNot3(l.t, l.null, l.errs)
					out.errs = kOr(l.errs, kAndNot(r.errs, l.t))
					out.null = kAndNot(kOr(l.null, kAnd(fl, r.null)), out.errs)
					out.t = kOr(l.t, kAnd(fl, r.t))
				}
				return out
			}, types.Bool, konst, true

		case "+", "-", "*", "/", "%":
			if !isIF(lk) || !isIF(rk) {
				break
			}
			if lk == types.Int && rk == types.Int {
				return c.intArith(n.Op, lf, rf), types.Int, konst, true
			}
			if n.Op == "%" {
				break // float modulo is math.Mod in the interpreter
			}
			lf = c.coerceFloat(lf, lk, lko)
			rf = c.coerceFloat(rf, rk, rko)
			return c.floatArith(n.Op, lf, rf), types.Float, konst, true

		case "<", "<=", ">", ">=", "=", "!=":
			if lk == types.Text && rk == types.Text && (n.Op == "=" || n.Op == "!=") {
				return c.textEq(n.Op == "!=", lf, rf), types.Bool, konst, true
			}
			if !isNumericK(lk) || !isNumericK(rk) {
				break
			}
			if (n.Op == "=" || n.Op == "!=") && lk != rk && !(isIF(lk) && isIF(rk)) {
				break // comparable() rejects e.g. Date = Int
			}
			lf = c.coerceFloat(lf, lk, lko)
			rf = c.coerceFloat(rf, rk, rko)
			return c.floatCompare(n.Op, lf, rf), types.Bool, konst, true
		}
		return c.generic(n, konst, lf, rf)

	case *expr.Call:
		args := make([]kfn, len(n.Args))
		konst := true
		for i, a := range n.Args {
			fn, _, k, ok := c.compile(a)
			if !ok {
				return nil, types.Invalid, false, false
			}
			args[i] = fn
			konst = konst && k
		}
		return c.generic(n, konst, args...)
	}
	return nil, types.Invalid, false, false
}

// generic lowers any operator node the monomorphic loops do not cover:
// row by row, it reads the operands from the children's lanes and
// applies the interpreter's own operator. A row with an operand error,
// an error from the operator, or a result whose kind differs from the
// node's static kind goes to the error bitmap, so the interpreter redoes
// it.
func (c *kernCompiler) generic(n expr.Node, konst bool, argFns ...kfn) (kfn, types.Kind, bool, bool) {
	apply, ok := expr.Applier(n)
	if !ok {
		return nil, types.Invalid, false, false
	}
	kind, err := expr.Check(n, c.scope)
	if err != nil {
		return nil, types.Invalid, false, false
	}
	return func(kc *kctx) *kvec {
		rows := kc.n
		out := newKvec(kind, rows)
		errs := newKbits(rows)
		args := make([]*kvec, len(argFns))
		for j, f := range argFns {
			args[j] = f(kc)
			for w := range errs {
				if e := args[j].errs; e != nil && w < len(e) {
					errs[w] |= e[w]
				}
			}
		}
		var null kbits
		vals := make([]types.Value, len(args))
		for i := 0; i < rows; i++ {
			if errs.test(i) {
				continue
			}
			for j, a := range args {
				vals[j] = a.value(i)
			}
			v, err := apply(vals)
			switch {
			case err != nil || (!v.IsNull() && v.Kind() != kind):
				errs.set(i)
			case v.IsNull():
				if null == nil {
					null = newKbits(rows)
				}
				null.set(i)
			case kind == types.Int:
				out.ints[i] = v.Int()
			case kind == types.Date:
				out.ints[i] = v.DateDays()
			case kind == types.Float:
				out.floats[i] = v.Float()
			case kind == types.Text:
				out.strs[i] = v.Text()
			case kind == types.Bool:
				if v.Bool() {
					out.t.set(i)
				}
			}
		}
		out.null = null
		if kAny(errs) {
			out.errs = errs
		}
		return out
	}, kind, konst, true
}

// compileComputed inlines a computed-attribute definition, evaluated
// once per chunk (memoized by definition node). The interpreter reads a
// definition that fails as null; here its error rows stay error rows,
// so the interpreter redoes the whole row and applies that rule itself.
func (c *kernCompiler) compileComputed(def expr.Node) (kfn, types.Kind, bool, bool) {
	c.depth++
	if c.depth > 64 {
		c.depth--
		return nil, types.Invalid, false, false
	}
	sub, kind, konst, ok := c.compile(def)
	c.depth--
	if !ok {
		return nil, types.Invalid, false, false
	}
	fn := func(kc *kctx) *kvec {
		if v, ok := kc.memo[def]; ok {
			return v
		}
		v := sub(kc)
		if kc.memo == nil {
			kc.memo = make(map[expr.Node]*kvec)
		}
		kc.memo[def] = v
		return v
	}
	return fn, kind, konst, true
}

// coerceFloat adapts an Int or Date lane producer to a float64 lane,
// matching AsFloat's conversion. Constant operands convert once.
func (c *kernCompiler) coerceFloat(fn kfn, kind types.Kind, konst bool) kfn {
	if kind == types.Float {
		return fn
	}
	conv := func(kc *kctx) *kvec {
		x := fn(kc)
		res := make([]float64, kc.n)
		lane := x.ints[:kc.n]
		for i := range res {
			res[i] = float64(lane[i])
		}
		return &kvec{kind: types.Float, floats: res, null: x.null, errs: x.errs}
	}
	if konst {
		bc := conv(&kctx{n: c.maxRows})
		return func(*kctx) *kvec { return bc }
	}
	return conv
}

// intArith lowers Int×Int arithmetic: Go's wrapping int64 ops, with
// division/modulo by zero flagged as per-row errors for fallback.
func (c *kernCompiler) intArith(op string, lf, rf kfn) kfn {
	return func(kc *kctx) *kvec {
		l, r := lf(kc), rf(kc)
		n := kc.n
		errs := kOr(l.errs, r.errs)
		null := kAndNot(kOr(l.null, r.null), errs)
		res := make([]int64, n)
		a, b := l.ints[:n], r.ints[:n]
		var zero kbits
		switch op {
		case "+":
			for i := range res {
				res[i] = a[i] + b[i]
			}
		case "-":
			for i := range res {
				res[i] = a[i] - b[i]
			}
		case "*":
			for i := range res {
				res[i] = a[i] * b[i]
			}
		case "/":
			for i := 0; i < n; i++ {
				if b[i] == 0 {
					if zero == nil {
						zero = newKbits(n)
					}
					zero.set(i)
					continue
				}
				res[i] = a[i] / b[i]
			}
		case "%":
			for i := 0; i < n; i++ {
				if b[i] == 0 {
					if zero == nil {
						zero = newKbits(n)
					}
					zero.set(i)
					continue
				}
				res[i] = a[i] % b[i]
			}
		}
		if zero != nil {
			// A zero divisor only errors on rows that were live: a null
			// operand already made the row null (its lane slot is 0).
			ne := kAndNot(kAndNot(zero, null), errs)
			if kAny(ne) {
				errs = kOr(errs, ne)
			}
		}
		return &kvec{kind: types.Int, ints: res, null: null, errs: errs}
	}
}

// floatArith lowers float64 arithmetic (operands already coerced).
// Division by zero — Compare's ±0 included — errors like evalArith.
func (c *kernCompiler) floatArith(op string, lf, rf kfn) kfn {
	return func(kc *kctx) *kvec {
		l, r := lf(kc), rf(kc)
		n := kc.n
		errs := kOr(l.errs, r.errs)
		null := kAndNot(kOr(l.null, r.null), errs)
		res := make([]float64, n)
		a, b := l.floats[:n], r.floats[:n]
		var zero kbits
		switch op {
		case "+":
			for i := range res {
				res[i] = a[i] + b[i]
			}
		case "-":
			for i := range res {
				res[i] = a[i] - b[i]
			}
		case "*":
			for i := range res {
				res[i] = a[i] * b[i]
			}
		case "/":
			for i := 0; i < n; i++ {
				if b[i] == 0 {
					if zero == nil {
						zero = newKbits(n)
					}
					zero.set(i)
					continue
				}
				res[i] = a[i] / b[i]
			}
		}
		if zero != nil {
			ne := kAndNot(kAndNot(zero, null), errs)
			if kAny(ne) {
				errs = kOr(errs, ne)
			}
		}
		return &kvec{kind: types.Float, floats: res, null: null, errs: errs}
	}
}

// floatCompare lowers numeric comparisons as three-way float64
// comparison predicates, reproducing types.Compare exactly — including
// NaN ordering as "equal to everything" (both a<b and a>b false).
func (c *kernCompiler) floatCompare(op string, lf, rf kfn) kfn {
	return func(kc *kctx) *kvec {
		l, r := lf(kc), rf(kc)
		n := kc.n
		errs := kOr(l.errs, r.errs)
		null := kAndNot(kOr(l.null, r.null), errs)
		t := newKbits(n)
		a, b := l.floats[:n], r.floats[:n]
		switch op {
		case "<":
			for i := 0; i < n; i++ {
				if a[i] < b[i] {
					t.set(i)
				}
			}
		case "<=":
			for i := 0; i < n; i++ {
				if !(a[i] > b[i]) {
					t.set(i)
				}
			}
		case ">":
			for i := 0; i < n; i++ {
				if a[i] > b[i] {
					t.set(i)
				}
			}
		case ">=":
			for i := 0; i < n; i++ {
				if !(a[i] < b[i]) {
					t.set(i)
				}
			}
		case "=":
			for i := 0; i < n; i++ {
				if !(a[i] < b[i]) && !(a[i] > b[i]) {
					t.set(i)
				}
			}
		case "!=":
			for i := 0; i < n; i++ {
				if a[i] < b[i] || a[i] > b[i] {
					t.set(i)
				}
			}
		}
		t = kAndNot(kAndNot(t, null), errs)
		return &kvec{kind: types.Bool, t: t, null: null, errs: errs}
	}
}

// textEq lowers Text equality (the one Text comparison with a
// monomorphic loop; ordering goes through the generic node).
func (c *kernCompiler) textEq(neq bool, lf, rf kfn) kfn {
	return func(kc *kctx) *kvec {
		l, r := lf(kc), rf(kc)
		n := kc.n
		errs := kOr(l.errs, r.errs)
		null := kAndNot(kOr(l.null, r.null), errs)
		t := newKbits(n)
		a, b := l.strs[:n], r.strs[:n]
		if neq {
			for i := 0; i < n; i++ {
				if a[i] != b[i] {
					t.set(i)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				if a[i] == b[i] {
					t.set(i)
				}
			}
		}
		t = kAndNot(kAndNot(t, null), errs)
		return &kvec{kind: types.Bool, t: t, null: null, errs: errs}
	}
}

// ---------------------------------------------------------------------
// Drivers.

// kernelEligible gates kernel use: only PathAuto runs kernels, and an
// empty relation has nothing to scan.
func kernelEligible(r *Relation, x Exec) bool {
	return x.kernels() && r.Len() > 0
}

// kernelScope is the kernel's name space over r's own columns.
func kernelScope(r *Relation) kernScope {
	return kernScope{schema: r.schema, computed: r.computed}
}

// collectRows concatenates per-chunk ascending row lists in chunk order.
func collectRows(chunkRows [][]int) []int {
	total := 0
	for _, ks := range chunkRows {
		total += len(ks)
	}
	rows := make([]int, 0, total)
	for _, ks := range chunkRows {
		rows = append(rows, ks...)
	}
	return rows
}

// kernelScan runs fn over every chunk of r's columnar view cs,
// chunk-parallel under x. fn gets a kernel context reset to the chunk,
// the chunk's index and first row, and a cursor over r for redoing
// flagged rows on the interpreter. Errors return unwrapped, the lowest
// chunk's first.
func kernelScan(r *Relation, cs *colStore, x Exec, fn func(kc *kctx, ci, base int, cur *rowCursor) error) error {
	nchunks := len(cs.slots)
	return runChunks(nchunks, min(x.chunks(r.Len()), nchunks), func(_, lo, hi int) error {
		var kc kctx
		cur := newRowCursor(r)
		for ci := lo; ci < hi; ci++ {
			ck, err := cs.chunk(ci)
			if err != nil {
				return err
			}
			base, _ := cs.chunkSpan(ci)
			kc.reset(ck)
			if err := fn(&kc, ci, base, cur); err != nil {
				return err
			}
		}
		return nil
	})
}

// redoRow positions cur on a row the kernel flagged and evaluates it on
// the interpreter.
func redoRow[T any](cur *rowCursor, row int, eval func(env expr.Env) (T, error)) (T, error) {
	obs.Inc(obs.RelKernelFallback)
	cur.idx = row
	v, err := eval(cur)
	if err == nil {
		err = cur.rd.Err()
	}
	return v, err
}

// kernelPartitionRows assigns each row of r to the first of preds that
// holds on it, with the kernel, returning each predicate's rows in
// ascending order; Restrict is the one-predicate case. A flagged row
// re-evaluates its predicate on the interpreter, so the first error
// reported is the one a serial scan through the predicates in order
// hits first. ok=false means the kernel declined (x's path, an empty
// relation, or a predicate that does not check) and the caller must use
// the interpreter.
func kernelPartitionRows(r *Relation, preds []expr.Node, x Exec) ([][]int, bool, error) {
	if !kernelEligible(r, x) {
		return nil, false, nil
	}
	cs := r.columnar()
	progs := make([]*kernProg, len(preds))
	for i, p := range preds {
		prog, ok := kernelCompile(p, kernelScope(r), min(cs.chunkRows, r.Len()))
		if !ok || prog.kind != types.Bool {
			return nil, false, nil
		}
		progs[i] = prog
	}
	chunkParts := make([][][]int, len(cs.slots))
	err := kernelScan(r, cs, x, func(kc *kctx, ci, base int, cur *rowCursor) error {
		vs := make([]*kvec, len(progs))
		for k, prog := range progs {
			vs[k] = prog.root(kc)
		}
		parts := make([][]int, len(preds))
		for i := 0; i < kc.n; i++ {
			for k, v := range vs {
				keep := v.t != nil && v.t.test(i)
				if v.errs != nil && v.errs.test(i) {
					var err error
					if keep, err = redoRow(cur, base+i, func(env expr.Env) (bool, error) {
						return expr.EvalPredicate(preds[k], env)
					}); err != nil {
						return err
					}
				}
				if keep {
					parts[k] = append(parts[k], base+i)
					break
				}
			}
		}
		chunkParts[ci] = parts
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	rows := make([][]int, len(preds))
	per := make([][]int, len(chunkParts))
	for k := range rows {
		for ci, parts := range chunkParts {
			per[ci] = parts[k]
		}
		rows[k] = collectRows(per)
	}
	return rows, true, nil
}

// kernelValues evaluates def for every row of r with the kernel, the
// value-producing counterpart of kernelPartitionRows: a flagged row
// takes the interpreter's value, or fails with rowErr(row, its error),
// lowest row first. ok=false declines to the interpreter.
func kernelValues(r *Relation, def expr.Node, x Exec, rowErr func(row int, err error) error) ([]types.Value, bool, error) {
	if !kernelEligible(r, x) {
		return nil, false, nil
	}
	cs := r.columnar()
	prog, ok := kernelCompile(def, kernelScope(r), min(cs.chunkRows, r.Len()))
	if !ok {
		return nil, false, nil
	}
	vals := make([]types.Value, r.Len())
	err := kernelScan(r, cs, x, func(kc *kctx, _, base int, cur *rowCursor) error {
		v := prog.root(kc)
		for i := 0; i < kc.n; i++ {
			if v.errs == nil || !v.errs.test(i) {
				vals[base+i] = v.value(i)
				continue
			}
			val, err := redoRow(cur, base+i, func(env expr.Env) (types.Value, error) {
				return expr.Eval(def, env)
			})
			if err != nil {
				return rowErr(base+i, err)
			}
			vals[base+i] = val
		}
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	return vals, true, nil
}

// kernelFusedRows evaluates every restriction of a fused pipeline over
// r's chunks with selection-vector composition: step k runs only
// against rows still selected when entering it (its errors on already-
// dropped rows are ignored, mirroring the interpreter's short-circuit),
// and error rows re-evaluate row-wise through sh.evalRow in ascending
// order, preserving exact step attribution. ok=false (no kernels
// compiled by the shape pass) declines to the interpreter.
func kernelFusedRows(r *Relation, sh *fusedShape, x Exec) ([]int, bool, error) {
	if sh.progs == nil {
		return nil, false, nil
	}
	obs.Inc(obs.RelKernelScans)
	cs := r.columnar()
	nchunks := len(cs.slots)
	chunkKeep := make([][]int, nchunks)
	err := runChunks(nchunks, min(x.chunks(r.Len()), nchunks), func(_, lo, hi int) error {
		var kc kctx
		var tup []types.Value
		for ci := lo; ci < hi; ci++ {
			ck, err := cs.chunk(ci)
			if err != nil {
				return fmt.Errorf("rel: fused scan: %w", err)
			}
			base, _ := cs.chunkSpan(ci)
			kc.reset(ck)
			cn := kc.n
			sel := onesKbits(cn)
			var fallback kbits
			for _, prog := range sh.progs {
				v := prog.root(&kc)
				if v.errs != nil {
					if nf := kAnd(v.errs, sel); kAny(nf) {
						fallback = kOr(fallback, nf)
					}
				}
				sel = kAnd(sel, v.t)
				if fallback != nil {
					sel = kAndNot(sel, fallback)
				}
			}
			keep := make([]int, 0, cn/4+8)
			for i := 0; i < cn; i++ {
				if fallback != nil && fallback.test(i) {
					obs.Inc(obs.RelKernelFallback)
					tup = ck.DecodeRow(i, tup[:0])
					ok, err := sh.evalRow(r, base+i, tup)
					if err != nil {
						return err
					}
					if ok {
						keep = append(keep, base+i)
					}
				} else if sel != nil && sel.test(i) {
					keep = append(keep, base+i)
				}
			}
			chunkKeep[ci] = keep
		}
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	return collectRows(chunkKeep), true, nil
}
