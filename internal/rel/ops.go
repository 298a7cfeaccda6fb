package rel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/btree"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/types"
)

// Project is standard database projection (Figure 3): the result keeps the
// named stored columns in the given order. Computed attributes whose
// references survive are carried along; others are dropped, matching the
// paper's note that projecting out fields a display function needs changes
// the visualization (the default display adapts).
func Project(r *Relation, names []string) (*Relation, error) {
	schema, err := r.schema.project(names)
	if err != nil {
		return nil, err
	}
	idxs := make([]int, len(names))
	for i, n := range names {
		idxs[i] = r.schema.Index(n)
	}
	out := r.derive(schema, true)
	n := r.Len()
	out.tuples = make([][]types.Value, n)
	rows := make([]int, n)
	rd := r.reader()
	for ti := 0; ti < n; ti++ {
		tup := rd.at(ti)
		nt := make([]types.Value, len(idxs))
		for i, ci := range idxs {
			nt[i] = tup[ci]
		}
		out.tuples[ti] = nt
		rows[ti] = ti
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("rel: project: %w", err)
	}
	out.setProv(r, rows)
	return out, nil
}

// Restrict filters a relation to tuples satisfying a predicate (Figure 3).
// When the predicate is a simple comparison on an indexed stored column,
// the index is scanned instead of the heap; otherwise every row is
// evaluated by the evaluator x selects.
func Restrict(r *Relation, pred expr.Node, x Exec) (*Relation, error) {
	if err := expr.CheckPredicate(pred, r); err != nil {
		return nil, err
	}
	out := r.derive(r.schema, true)
	obs.Add(obs.RelRestrictRowsIn, int64(r.Len()))

	if rows, ok := indexedRows(r, pred); ok {
		obs.Inc(obs.RelRestrictIndexed)
		obs.Add(obs.RelRestrictRowsOut, int64(len(rows)))
		out.tuples = make([][]types.Value, 0, len(rows))
		rd := r.reader()
		for _, row := range rows {
			out.tuples = append(out.tuples, rd.take(row))
		}
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("rel: restrict: %w", err)
		}
		out.setProv(r, rows)
		return out, nil
	}

	obs.Inc(obs.RelRestrictScans)
	parts, kernel, err := partitionRows(r, []expr.Node{pred}, x)
	if kernel {
		obs.Inc(obs.RelKernelScans)
	}
	if err != nil {
		return nil, fmt.Errorf("rel: restrict: %w", err)
	}
	rows := parts[0]
	out.tuples = make([][]types.Value, len(rows))
	rd := r.reader()
	for i, row := range rows {
		out.tuples[i] = rd.take(row)
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("rel: restrict: %w", err)
	}
	obs.Add(obs.RelRestrictRowsOut, int64(len(rows)))
	out.setProv(r, rows)
	return out, nil
}

// indexedRows recognizes predicates of the form col OP literal (or literal
// OP col) on an indexed column and answers them from the B-tree, returning
// matching rows in key order.
func indexedRows(r *Relation, pred expr.Node) ([]int, bool) {
	b, ok := pred.(*expr.Binary)
	if !ok {
		return nil, false
	}
	var col string
	var lit types.Value
	op := b.Op
	if ref, ok := b.L.(*expr.Ref); ok {
		if l, ok := b.R.(*expr.Lit); ok {
			col, lit = ref.Name, l.Val
		}
	} else if ref, ok := b.R.(*expr.Ref); ok {
		if l, ok := b.L.(*expr.Lit); ok {
			col, lit = ref.Name, l.Val
			// Flip the comparison: lit OP col == col flip(OP) lit.
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
	}
	if col == "" || lit.IsNull() {
		return nil, false
	}
	idx, ok := r.Index(col)
	if !ok {
		return nil, false
	}
	// Mixed int/float comparisons through the index would need care;
	// require the literal kind to match the column kind exactly.
	if k, _ := r.schema.KindOf(col); k != lit.Kind() {
		return nil, false
	}

	var rows []int
	switch op {
	case "=":
		rows = append(rows, idx.Get(lit)...)
	case "<":
		idx.AscendRange(nil, &lit, func(it btree.Item) bool {
			if c, _ := it.Key.Compare(lit); c < 0 {
				rows = append(rows, it.Rows...)
			}
			return true
		})
	case "<=":
		idx.AscendRange(nil, &lit, func(it btree.Item) bool {
			rows = append(rows, it.Rows...)
			return true
		})
	case ">":
		idx.AscendRange(&lit, nil, func(it btree.Item) bool {
			if c, _ := it.Key.Compare(lit); c > 0 {
				rows = append(rows, it.Rows...)
			}
			return true
		})
	case ">=":
		idx.AscendRange(&lit, nil, func(it btree.Item) bool {
			rows = append(rows, it.Rows...)
			return true
		})
	default:
		return nil, false
	}
	sort.Ints(rows)
	return rows, true
}

// Sample produces a random subset of the input: each tuple is retained
// with probability p (Figure 3). The paper motivates Sample as a way to
// improve interactive response by reducing data volume. The RNG is seeded
// so visualizations are reproducible; callers wanting variation pass
// different seeds.
func Sample(r *Relation, p float64, seed int64) (*Relation, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("rel: sample probability %g out of [0,1]", p)
	}
	obs.Inc(obs.RelSamples)
	rng := rand.New(rand.NewSource(seed))
	out := r.derive(r.schema, true)
	// Expected output size is p·n; pad a little so typical draws append
	// without growing.
	n := r.Len()
	est := int(float64(n)*p) + 16
	if est > n {
		est = n
	}
	out.tuples = make([][]types.Value, 0, est)
	rows := make([]int, 0, est)
	rd := r.reader()
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			out.tuples = append(out.tuples, rd.take(i))
			rows = append(rows, i)
		}
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("rel: sample: %w", err)
	}
	out.setProv(r, rows)
	return out, nil
}

// JoinStrategy selects the join algorithm behind the Join box.
type JoinStrategy int

// Join strategies. JoinAuto uses a hash join when the predicate is a
// conjunction containing an equality between one attribute of each input,
// and otherwise falls back to a nested loop.
const (
	JoinAuto JoinStrategy = iota
	JoinHash
	JoinNestedLoop
)

// joinShape builds the output shape of a join of l and r: l's stored
// columns followed by r's (collisions disambiguated with a "_r" suffix),
// with computed attributes of both inputs carried where their references
// survive. The returned map takes r's original column names to their
// disambiguated names in the join scope.
func joinShape(l, r *Relation) (*Relation, map[string]string, error) {
	rRename := make(map[string]string)
	cols := l.schema.Columns()
	for _, c := range r.schema.Columns() {
		name := c.Name
		if l.schema.Has(name) {
			name = name + "_r"
			for l.schema.Has(name) || r.schema.Has(name) {
				name += "_"
			}
			rRename[c.Name] = name
		}
		cols = append(cols, Column{Name: name, Kind: c.Kind})
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, nil, fmt.Errorf("rel: join: %w", err)
	}

	out := &Relation{schema: schema}
	// Carry computed attributes that still resolve.
	for _, src := range [][]Computed{l.computed, r.computed} {
		for _, c := range src {
			ok := !out.HasAttr(c.Name)
			for _, ref := range expr.Refs(c.Expr) {
				if !out.HasAttr(ref) && !schema.Has(ref) {
					ok = false
					break
				}
			}
			if ok {
				out.computed = append(out.computed, c)
			}
		}
	}
	return out, rRename, nil
}

// Join computes the theta-join of l and r under pred (Figure 3). The
// output schema is l's stored columns followed by r's; name collisions are
// disambiguated by suffixing r's columns with "_r" (and the predicate sees
// the disambiguated names). Computed attributes of both inputs are carried
// over where their references survive. The interpreter evaluates the
// predicate one candidate pair at a time on every Exec path.
//
// The hash join drops the key equality it hashed on from the predicate
// it evaluates per matched pair: for every kind keyOf buckets, two
// values with the same key compare equal under types.Compare without
// error (Int, Float and Date compare as float64, the form keyOf keys
// them by; NaN and ±0 fold the same way in both), and null keys never
// match. The conjunct is therefore true on every matched pair, and
// "E and P" equals P wherever E is true.
func Join(l, r *Relation, pred expr.Node, strategy JoinStrategy, x Exec) (*Relation, error) {
	out, rRename, err := joinShape(l, r)
	if err != nil {
		return nil, err
	}

	if err := expr.CheckPredicate(pred, out); err != nil {
		return nil, fmt.Errorf("rel: join predicate: %w", err)
	}

	if strategy == JoinAuto || strategy == JoinHash {
		if la, ra, eq, ok := equiKey(pred, l, r, rRename); ok {
			obs.Inc(obs.RelJoinHash)
			if err := hashJoin(out, l, r, la, ra, joinEmit(out, withoutConjunct(pred, eq))); err != nil {
				return nil, err
			}
			obs.Add(obs.RelJoinRowsOut, int64(len(out.tuples)))
			return out, nil
		}
		if strategy == JoinHash {
			return nil, fmt.Errorf("rel: join: hash strategy requires an equality predicate between the inputs")
		}
	}

	obs.Inc(obs.RelJoinNestedLoop)
	emit := joinEmit(out, pred)
	lrd, rrd := l.reader(), r.reader()
	for i, ln := 0, l.Len(); i < ln; i++ {
		lt := lrd.take(i)
		for j, rn := 0, r.Len(); j < rn; j++ {
			nt, err := emit(lt, rrd.at(j))
			if err != nil {
				return nil, fmt.Errorf("rel: join: %w", err)
			}
			if nt != nil {
				out.tuples = append(out.tuples, nt)
			}
		}
	}
	if err := lrd.Err(); err != nil {
		return nil, fmt.Errorf("rel: join: %w", err)
	}
	if err := rrd.Err(); err != nil {
		return nil, fmt.Errorf("rel: join: %w", err)
	}
	obs.Add(obs.RelJoinRowsOut, int64(len(out.tuples)))
	return out, nil
}

// joinEmit returns the per-pair step of a join into out: concatenate
// the pair into one scratch tuple reused across pairs and, if pred
// (nil means true) holds on it, return a copy.
func joinEmit(out *Relation, pred expr.Node) func(lt, rt []types.Value) ([]types.Value, error) {
	env := &scratchEnv{rel: out}
	return func(lt, rt []types.Value) ([]types.Value, error) {
		env.tuple = append(append(env.tuple[:0], lt...), rt...)
		if pred != nil {
			keep, err := expr.EvalPredicate(pred, env)
			if err != nil || !keep {
				return nil, err
			}
		}
		return append([]types.Value(nil), env.tuple...), nil
	}
}

// withoutConjunct returns pred with the conjunct eq removed from its
// top-level "and" tree, or nil when nothing remains.
func withoutConjunct(pred, eq expr.Node) expr.Node {
	if pred == eq {
		return nil
	}
	b, ok := pred.(*expr.Binary)
	if !ok || b.Op != "and" {
		return pred
	}
	l, r := withoutConjunct(b.L, eq), withoutConjunct(b.R, eq)
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l == b.L && r == b.R:
		return b
	}
	return &expr.Binary{Op: "and", L: l, R: r}
}

// scratchEnv is an expr.Env over a candidate join output tuple (not yet
// appended) against the output relation's schema and computed
// attributes; a join rebinds one scratchEnv's tuple per candidate pair.
type scratchEnv struct {
	rel   *Relation
	tuple []types.Value
}

// AttrValue implements expr.Env.
func (s *scratchEnv) AttrValue(name string) (types.Value, bool) {
	if i := s.rel.schema.Index(name); i >= 0 {
		return s.tuple[i], true
	}
	for _, c := range s.rel.computed {
		if c.Name == name {
			v, err := expr.Eval(c.Expr, s)
			if err != nil {
				return types.Null, true
			}
			return v, true
		}
	}
	return types.Null, false
}

// equiKey finds an equality conjunct "lcol = rcol" usable as a hash key,
// returning it as eq. rRename maps r's original column names to their
// disambiguated names in the join scope; the returned ra is r's ORIGINAL
// column name.
func equiKey(pred expr.Node, l, r *Relation, rRename map[string]string) (la, ra string, eq expr.Node, ok bool) {
	b, isBin := pred.(*expr.Binary)
	if !isBin {
		return "", "", nil, false
	}
	if b.Op == "and" {
		if la, ra, eq, ok = equiKey(b.L, l, r, rRename); ok {
			return la, ra, eq, true
		}
		return equiKey(b.R, l, r, rRename)
	}
	if b.Op != "=" {
		return "", "", nil, false
	}
	lr, lok := b.L.(*expr.Ref)
	rr, rok := b.R.(*expr.Ref)
	if !lok || !rok {
		return "", "", nil, false
	}
	// Resolve each ref to a side. A ref names r's column either by its
	// original name (if unambiguous) or the renamed form.
	resolve := func(name string) (side int, col string) {
		if l.schema.Has(name) && r.schema.Has(name) {
			// Ambiguous original name: in the join scope it denotes l's
			// column; r's is reachable only via the rename.
			return 0, name
		}
		if l.schema.Has(name) {
			return 0, name
		}
		if r.schema.Has(name) {
			return 1, name
		}
		for orig, renamed := range rRename {
			if renamed == name {
				return 1, orig
			}
		}
		return -1, ""
	}
	s1, c1 := resolve(lr.Name)
	s2, c2 := resolve(rr.Name)
	switch {
	case s1 == 0 && s2 == 1:
		return c1, c2, b, true
	case s1 == 1 && s2 == 0:
		return c2, c1, b, true
	}
	return "", "", nil, false
}

func hashJoin(out, l, r *Relation, la, ra string, emit func(lt, rt []types.Value) ([]types.Value, error)) error {
	li, ri := l.schema.Index(la), r.schema.Index(ra)
	if li < 0 || ri < 0 {
		return fmt.Errorf("rel: join: internal: bad equi columns %q/%q", la, ra)
	}
	// Build on the smaller input.
	build, probe := r, l
	bi, pi := ri, li
	buildIsRight := true
	if l.Len() < r.Len() {
		build, probe = l, r
		bi, pi = li, ri
		buildIsRight = false
	}
	table := make(map[valueKey][]int, build.Len())
	brd := build.reader()
	for row, n := 0, build.Len(); row < n; row++ {
		v := brd.value(row, bi)
		if v.IsNull() {
			continue
		}
		k := keyOf(v)
		table[k] = append(table[k], row)
	}
	prd := probe.reader()
	bget := build.reader() // random access into build during probe
	for prow, n := 0, probe.Len(); prow < n; prow++ {
		ptup := prd.at(prow)
		v := ptup[pi]
		if v.IsNull() {
			continue
		}
		for _, brow := range table[keyOf(v)] {
			btup := bget.take(brow)
			var lt, rt []types.Value
			if buildIsRight {
				lt, rt = ptup, btup
			} else {
				lt, rt = btup, ptup
			}
			nt, err := emit(lt, rt)
			if err != nil {
				return fmt.Errorf("rel: join: %w", err)
			}
			if nt != nil {
				out.tuples = append(out.tuples, nt)
			}
		}
	}
	for _, rd := range []*rowReader{&brd, &prd, &bget} {
		if err := rd.Err(); err != nil {
			return fmt.Errorf("rel: join: %w", err)
		}
	}
	return nil
}

// valueKey is an allocation-free comparable canonical form of a value for
// hash bucketing. Int and Float share a key when numerically equal
// (mirroring Value.Compare); Date keeps its own kind so 1996-05-12 never
// buckets with the int of its day count; text rides in str. NaN and
// negative zero are canonicalized so map equality (==) matches numeric
// equality.
type valueKey struct {
	kind types.Kind
	num  float64
	str  string
}

// keyOf canonicalizes a value into its bucketing key.
func keyOf(v types.Value) valueKey {
	switch v.Kind() {
	case types.Int, types.Float:
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0 // fold -0 into +0; they compare equal
		}
		if math.IsNaN(f) {
			return valueKey{kind: types.Float, str: "NaN"} // NaN != NaN under ==
		}
		return valueKey{kind: types.Float, num: f}
	case types.Date:
		return valueKey{kind: types.Date, num: float64(v.DateDays())}
	case types.Bool:
		if v.Bool() {
			return valueKey{kind: types.Bool, num: 1}
		}
		return valueKey{kind: types.Bool}
	case types.Text:
		return valueKey{kind: types.Text, str: v.Text()}
	}
	return valueKey{} // null
}

// appendKeyBytes appends a canonical byte encoding of v's valueKey, for
// composite (whole-tuple) keys: a kind tag, then either a length-prefixed
// string (Text) or 8 canonical float bits. The encoding is a prefix code,
// so concatenated keys cannot realign across value boundaries.
func appendKeyBytes(b []byte, v types.Value) []byte {
	k := keyOf(v)
	b = append(b, byte(k.kind))
	if k.kind == types.Text {
		b = binary.AppendUvarint(b, uint64(len(k.str)))
		return append(b, k.str...)
	}
	f := k.num
	if k.str != "" {
		f = math.NaN() // canonical NaN bits for the NaN key
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	return append(b, buf[:]...)
}

// Sort returns the relation ordered by the named attribute (stored or
// computed), ascending or descending. Used by default displays and by the
// elevation map's drawing-order view.
func Sort(r *Relation, attr string, descending bool) (*Relation, error) {
	if !r.HasAttr(attr) {
		return nil, fmt.Errorf("rel: sort: no attribute %q", attr)
	}
	obs.Inc(obs.RelSorts)
	rows := make([]int, r.Len())
	for i := range rows {
		rows[i] = i
	}
	var sortErr error
	sort.SliceStable(rows, func(a, b int) bool {
		va := r.Row(rows[a]).Attr(attr)
		vb := r.Row(rows[b]).Attr(attr)
		c, err := va.Compare(vb)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		if descending {
			return c > 0
		}
		return c < 0
	})
	if sortErr != nil {
		return nil, fmt.Errorf("rel: sort on %q: %w", attr, sortErr)
	}
	out := r.derive(r.schema, true)
	out.tuples = make([][]types.Value, len(rows))
	rd := r.reader()
	for i, row := range rows {
		out.tuples[i] = rd.take(row)
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("rel: sort on %q: %w", attr, err)
	}
	out.setProv(r, rows)
	return out, nil
}

// Union concatenates relations with equal schemas.
func Union(rels ...*Relation) (*Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("rel: union of nothing")
	}
	for _, r := range rels[1:] {
		if !r.schema.Equal(rels[0].schema) {
			return nil, fmt.Errorf("rel: union: schema mismatch: %s vs %s", rels[0].schema, r.schema)
		}
	}
	out := rels[0].derive(rels[0].schema, true)
	for _, r := range rels {
		if r.cols == nil {
			out.tuples = append(out.tuples, r.tuples...)
			continue
		}
		rd := r.reader()
		for i, n := 0, r.Len(); i < n; i++ {
			out.tuples = append(out.tuples, rd.take(i))
		}
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("rel: union: %w", err)
		}
	}
	return out, nil
}

// Partition splits a relation by a list of predicates; tuple membership is
// decided by the first predicate that matches (tuples matching none are
// dropped). This is the relational engine beneath Replicate (Section 7.4)
// and the multi-output Partition box.
func Partition(r *Relation, preds []expr.Node, x Exec) ([]*Relation, error) {
	outs := make([]*Relation, len(preds))
	for i, p := range preds {
		if err := expr.CheckPredicate(p, r); err != nil {
			return nil, fmt.Errorf("rel: partition predicate %d: %w", i, err)
		}
		outs[i] = r.derive(r.schema, true)
	}
	rows, _, err := partitionRows(r, preds, x)
	if err != nil {
		return nil, fmt.Errorf("rel: partition: %w", err)
	}
	rd := r.reader()
	for pi, prows := range rows {
		outs[pi].tuples = make([][]types.Value, len(prows))
		for i, row := range prows {
			outs[pi].tuples[i] = rd.take(row)
		}
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("rel: partition: %w", err)
	}
	for pi := range outs {
		outs[pi].setProv(r, rows[pi])
	}
	return outs, nil
}

// partitionRows assigns each row of r to the first of preds that holds
// on it, on the evaluator x selects, returning each predicate's rows in
// ascending order and whether the kernel ran. Errors return unwrapped.
func partitionRows(r *Relation, preds []expr.Node, x Exec) ([][]int, bool, error) {
	if rows, ok, err := kernelPartitionRows(r, preds, x); ok {
		return rows, true, err
	}
	rows := make([][]int, len(preds))
	cur := newRowCursor(r)
	for ti, n := 0, r.Len(); ti < n; ti++ {
		cur.idx = ti
		for pi, p := range preds {
			keep, err := expr.EvalPredicate(p, cur)
			if err != nil {
				return nil, false, err
			}
			if keep {
				rows[pi] = append(rows[pi], ti)
				break
			}
		}
	}
	return rows, false, cur.rd.Err()
}

// MapColumn materializes a stored column from an expression evaluated per
// tuple, the engine beneath Set/Scale/Translate Attribute applied to a
// stored attribute. The column's kind follows the expression's type.
func MapColumn(r *Relation, col string, def expr.Node, x Exec) (*Relation, error) {
	ci := r.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("rel: map column: no stored column %q", col)
	}
	k, err := expr.Check(def, r)
	if err != nil {
		return nil, fmt.Errorf("rel: map column %q: %w", col, err)
	}
	cols := r.schema.Columns()
	cols[ci].Kind = k
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := r.derive(schema, true)
	n := r.Len()
	out.tuples = make([][]types.Value, n)
	rows := make([]int, n)
	rowErr := func(row int, err error) error {
		return fmt.Errorf("rel: map column %q row %d: %w", col, row, err)
	}
	vals, ok, err := kernelValues(r, def, x, rowErr)
	if err != nil {
		return nil, err
	}
	cur := newRowCursor(r)
	rd := r.reader()
	for i := 0; i < n; i++ {
		var v types.Value
		if ok {
			v = vals[i]
		} else {
			cur.idx = i
			if v, err = expr.Eval(def, cur); err != nil {
				return nil, rowErr(i, err)
			}
		}
		if k == types.Float && v.Kind() == types.Int {
			// Check types a mixed Int/Float if() (and what derives from
			// it) as Float, but a row may evaluate to an Int; a stored
			// column holds its declared kind, as Append enforces.
			v = types.NewFloat(float64(v.Int()))
		}
		nt := append([]types.Value(nil), rd.at(i)...)
		nt[ci] = v
		out.tuples[i] = nt
		rows[i] = i
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("rel: map column %q: %w", col, err)
	}
	out.setProv(r, rows)
	return out, nil
}

// SwapColumns interchanges two stored attributes of the same type
// (Figure 5's Swap Attributes on stored columns) by swapping their names
// in the schema, which exchanges the attributes' values without touching
// tuple storage.
func SwapColumns(r *Relation, a, b string) (*Relation, error) {
	ai, bi := r.schema.Index(a), r.schema.Index(b)
	if ai < 0 || bi < 0 {
		return nil, fmt.Errorf("rel: swap: missing column %q or %q", a, b)
	}
	if r.schema.Col(ai).Kind != r.schema.Col(bi).Kind {
		return nil, fmt.Errorf("rel: swap: %q is %s but %q is %s",
			a, r.schema.Col(ai).Kind, b, r.schema.Col(bi).Kind)
	}
	cols := r.schema.Columns()
	cols[ai].Name, cols[bi].Name = cols[bi].Name, cols[ai].Name
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := r.derive(schema, true)
	out.tuples = r.tuples
	if r.cols != nil {
		// Share chunk storage under the renamed schema: the swap only
		// touches names, and chunks store no names, so the slots carry
		// over untouched.
		out.cols = &colStore{schema: schema, slots: r.cols.slots, rows: r.cols.rows, chunkRows: r.cols.chunkRows}
	}
	rows := make([]int, r.Len())
	for i := range rows {
		rows[i] = i
	}
	out.setProv(r, rows)
	return out, nil
}

// DropColumn removes one stored column (Remove Attribute on a stored
// attribute is Project over the survivors).
func DropColumn(r *Relation, col string) (*Relation, error) {
	if r.schema.Index(col) < 0 {
		return nil, fmt.Errorf("rel: drop: no stored column %q", col)
	}
	var keep []string
	for _, c := range r.schema.Columns() {
		if c.Name != col {
			keep = append(keep, c.Name)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("rel: drop: cannot remove the only column %q", col)
	}
	return Project(r, keep)
}

// DistinctValues returns the distinct values of an attribute in first-
// appearance order, used to expand an enumerated-type Replicate
// specification into predicates.
func DistinctValues(r *Relation, attr string) ([]types.Value, error) {
	if !r.HasAttr(attr) {
		return nil, fmt.Errorf("rel: no attribute %q", attr)
	}
	seen := make(map[valueKey]bool)
	var out []types.Value
	cu := r.NewCursor()
	for i := 0; i < r.Len(); i++ {
		cu.Seek(i)
		v := cu.Attr(attr)
		k := keyOf(v)
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// Distinct removes duplicate tuples (full-tuple equality), keeping first
// occurrences in order. Computed attributes are carried; provenance maps
// each survivor to its first occurrence.
func Distinct(r *Relation) *Relation {
	out := r.derive(r.schema, true)
	seen := make(map[string]bool, r.Len())
	var rows []int
	var buf []byte
	rd := r.reader()
	for i := 0; i < r.Len(); i++ {
		buf = buf[:0]
		for _, v := range rd.at(i) {
			buf = appendKeyBytes(buf, v)
		}
		key := string(buf)
		if seen[key] {
			continue
		}
		seen[key] = true
		out.tuples = append(out.tuples, rd.take(i))
		rows = append(rows, i)
	}
	out.setProv(r, rows)
	return out
}

// Limit keeps the first n tuples — the quick-look complement to Sample
// for interactive response.
func Limit(r *Relation, n int) (*Relation, error) {
	if n < 0 {
		return nil, fmt.Errorf("rel: limit must be non-negative, got %d", n)
	}
	if n > r.Len() {
		n = r.Len()
	}
	out := r.derive(r.schema, true)
	if r.cols == nil {
		out.tuples = r.tuples[:n]
	} else {
		out.tuples = make([][]types.Value, n)
		rd := r.reader()
		for i := 0; i < n; i++ {
			out.tuples[i] = rd.take(i)
		}
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("rel: limit: %w", err)
		}
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	out.setProv(r, rows)
	return out, nil
}
