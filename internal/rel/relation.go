package rel

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/expr"
	"repro/internal/types"
)

// genCounter issues generation stamps process-wide. Every stamp is taken
// from this one counter, so a generation identifies a unique immutable
// snapshot of some relation's visible contents: two relations never share
// a stamp, and a relation never reuses one after a mutation. Downstream
// caches (the viewer's spatial cull index, display-list memo, and
// wormhole interior cache) key on generations instead of guessing at
// staleness. Stamps start at 1; 0 means "not yet assigned".
var genCounter atomic.Int64

// nextGen returns a fresh, never-before-issued generation stamp.
func nextGen() int64 { return genCounter.Add(1) }

// Computed is an attribute defined by an expression over other attributes
// of the same relation — the paper's "methods defining additional
// attributes" on an object-relational table (Section 2). Location
// attributes are typically computed (for example x = longitude).
type Computed struct {
	Name string
	Kind types.Kind
	Expr expr.Node
}

// Relation is a table: a stored schema, tuple storage, computed
// attributes, and optional secondary indexes on stored columns. Derived
// relations produced by operators share immutable tuple storage with their
// inputs where possible; only the db package mutates base tables, through
// Relation's update hooks.
type Relation struct {
	name     string
	schema   *Schema
	tuples   [][]types.Value
	computed []Computed
	indexes  map[string]*btree.Tree
	// cols, when non-nil, is the authoritative tuple storage: typed
	// columnar chunks (tuples stays nil). Chunk-backed relations come
	// from persistent backends via FromChunkSource; their chunks fault
	// in lazily through the bounded chunk cache. colStore values are
	// immutable, so CoW here is plain pointer replacement: mutators
	// install a new store sharing every untouched chunk slot.
	cols *colStore
	// colview caches a lazily-encoded columnar view of a row-major
	// relation, keyed by generation, so the columnar kernel can
	// run over contiguous arrays without the relation itself migrating.
	// The view's chunks are encoded on demand from the (immutable at
	// this generation) tuple slices and are freely evictable.
	colview atomic.Pointer[colView]
	// provenance: when set, tuple i of this relation derives from tuple
	// provRows[i] of provBase. Operators that keep tuples intact
	// (Restrict, Sample, Sort, Project, column maps) maintain it so a
	// screen object can be traced to a base-table row for updates
	// (Section 8); Join and Union drop it.
	provBase *Relation
	provRows []int
	// gen is the relation's generation stamp: 0 until first observed,
	// then a unique value from genCounter, replaced with a fresh one on
	// every content mutation. Accessed atomically so renders may read it
	// while other relations are being built.
	gen int64
}

// Generation returns the relation's generation stamp, assigning one on
// first observation (which also covers derivation: every relation built
// by an operator starts unstamped and receives a fresh stamp the first
// time a cache looks at it). Equal stamps imply identical visible
// contents; after any mutation the stamp differs from every stamp ever
// issued for any relation.
func (r *Relation) Generation() int64 {
	if g := atomic.LoadInt64(&r.gen); g != 0 {
		return g
	}
	g := nextGen()
	if atomic.CompareAndSwapInt64(&r.gen, 0, g) {
		return g
	}
	return atomic.LoadInt64(&r.gen)
}

// bumpGen invalidates the current stamp after a content mutation.
func (r *Relation) bumpGen() { atomic.StoreInt64(&r.gen, nextGen()) }

// setProv installs provenance, composing with the source's own provenance
// so BaseRow always reaches a base table in one hop chain.
func (r *Relation) setProv(src *Relation, rows []int) {
	if src.provBase != nil {
		base := src.provBase
		composed := make([]int, len(rows))
		for i, row := range rows {
			composed[i] = src.provRows[row]
		}
		r.provBase, r.provRows = base, composed
		return
	}
	r.provBase, r.provRows = src, rows
}

// BaseRow traces tuple i to its originating base relation and row. For a
// relation with no provenance (a base table itself, or the output of Join
// or Union) it returns the relation and i unchanged.
func (r *Relation) BaseRow(i int) (*Relation, int) {
	if r.provBase == nil || i < 0 || i >= len(r.provRows) {
		return r, i
	}
	return r.provBase, r.provRows[i]
}

// colView pairs a derived columnar encoding with the generation it was
// built from.
type colView struct {
	gen int64
	cs  *colStore
}

// New creates an empty relation with the given schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{name: name, schema: schema}
}

// FromChunkSource creates a chunk-backed relation over src: tuple
// storage lives in columnar chunks that fault in lazily through the
// bounded chunk cache, so the relation can be far larger than the
// memory quota. The relation participates in the normal CoW/versioning
// discipline — Append and Update replace only the affected chunk.
func FromChunkSource(name string, schema *Schema, src ChunkSource) (*Relation, error) {
	if src.ChunkRows() <= 0 {
		return nil, fmt.Errorf("rel: %s: chunk source reports %d rows per chunk", name, src.ChunkRows())
	}
	want := (src.Rows() + src.ChunkRows() - 1) / src.ChunkRows()
	if src.NumChunks() != want {
		return nil, fmt.Errorf("rel: %s: chunk source shape mismatch (%d chunks for %d rows at %d/chunk)",
			name, src.NumChunks(), src.Rows(), src.ChunkRows())
	}
	return &Relation{name: name, schema: schema, cols: newColStore(schema, src)}, nil
}

// ChunkBacked reports whether tuple storage is columnar chunks (true
// for relations loaded through a persistent backend) rather than
// resident row-major slices.
func (r *Relation) ChunkBacked() bool { return r.cols != nil }

// columnar returns a columnar view of the relation: the authoritative
// store for chunk-backed relations, or a generation-keyed lazily-encoded
// view for row-major ones. The view encodes chunks on demand, so taking
// it is cheap; kernels that never touch a chunk never pay for it.
func (r *Relation) columnar() *colStore {
	if r.cols != nil {
		return r.cols
	}
	g := r.Generation()
	if v := r.colview.Load(); v != nil && v.gen == g {
		return v.cs
	}
	cs := buildColStore(r.schema, r.tuples, DefaultChunkRows)
	r.colview.Store(&colView{gen: g, cs: cs})
	return cs
}

// storedValue reads stored column col of row i through whichever
// storage the relation uses. Chunk read errors (possible only on
// file-backed sources) degrade to null here; scan paths use rowReader,
// which carries a sticky error instead.
func (r *Relation) storedValue(i, col int) types.Value {
	if r.cols == nil {
		return r.tuples[i][col]
	}
	v, err := r.cols.value(i, col)
	if err != nil {
		return types.Null
	}
	return v
}

// tupleAt materializes row i from whichever storage the relation uses.
func (r *Relation) tupleAt(i int) ([]types.Value, error) {
	if r.cols == nil {
		return r.tuples[i], nil
	}
	ci, off := r.cols.rowChunk(i)
	c, err := r.cols.chunk(ci)
	if err != nil {
		return nil, err
	}
	return c.DecodeRow(off, make([]types.Value, 0, r.schema.Len())), nil
}

// rowReader is sequential row access for scan loops. For row-major
// relations it is a bounds-checked slice read; for chunk-backed ones it
// decodes a chunk at a time, pinning the current chunk so eviction
// cannot pull the arrays out from under the scan. Readers are cheap;
// parallel scans make one per worker.
type rowReader struct {
	r          *Relation
	ck         *Chunk
	ckLo, ckHi int
	buf        []types.Value
	err        error
}

// reader returns a fresh rowReader over r.
func (r *Relation) reader() rowReader { return rowReader{r: r, ckLo: -1, ckHi: -1} }

// seek positions the reader's chunk window over row i.
func (rd *rowReader) seek(i int) bool {
	cs := rd.r.cols
	ci, _ := cs.rowChunk(i)
	c, err := cs.chunk(ci)
	if err != nil {
		if rd.err == nil {
			rd.err = err
		}
		return false
	}
	rd.ck = c
	rd.ckLo, rd.ckHi = cs.chunkSpan(ci)
	return true
}

// at returns row i. For chunk-backed relations the slice is a scratch
// buffer valid only until the next at call; use take when the tuple is
// retained. On a chunk read error it returns a null-filled row and
// records the error for Err.
func (rd *rowReader) at(i int) []types.Value {
	if rd.r.cols == nil {
		return rd.r.tuples[i]
	}
	if i < rd.ckLo || i >= rd.ckHi {
		if !rd.seek(i) {
			return rd.nullRow()
		}
	}
	rd.buf = rd.ck.DecodeRow(i-rd.ckLo, rd.buf[:0])
	return rd.buf
}

// take returns row i as a slice safe to retain and share: the stored
// slice itself for row-major relations (frozen by convention), a fresh
// decode for chunk-backed ones.
func (rd *rowReader) take(i int) []types.Value {
	if rd.r.cols == nil {
		return rd.r.tuples[i]
	}
	if i < rd.ckLo || i >= rd.ckHi {
		if !rd.seek(i) {
			return rd.nullRow()
		}
	}
	return rd.ck.DecodeRow(i-rd.ckLo, make([]types.Value, 0, rd.r.schema.Len()))
}

// value reads one stored column of row i without decoding the row.
func (rd *rowReader) value(i, col int) types.Value {
	if rd.r.cols == nil {
		return rd.r.tuples[i][col]
	}
	if i < rd.ckLo || i >= rd.ckHi {
		if !rd.seek(i) {
			return types.Null
		}
	}
	return rd.ck.Value(col, i-rd.ckLo)
}

// Err reports the first chunk read error the reader hit, if any.
func (rd *rowReader) Err() error { return rd.err }

func (rd *rowReader) nullRow() []types.Value {
	if cap(rd.buf) < rd.r.schema.Len() {
		rd.buf = make([]types.Value, rd.r.schema.Len())
	}
	rd.buf = rd.buf[:rd.r.schema.Len()]
	for i := range rd.buf {
		rd.buf[i] = types.Null
	}
	return rd.buf
}

// Name returns the relation's name ("" for anonymous derived relations).
func (r *Relation) Name() string { return r.name }

// Schema returns the stored-column schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.cols != nil {
		return r.cols.rows
	}
	return len(r.tuples)
}

// Computed returns the computed attribute definitions in order.
func (r *Relation) Computed() []Computed { return append([]Computed(nil), r.computed...) }

// AttrKind implements expr.Scope over stored and computed attributes — the
// uniform t.l notation of the paper.
func (r *Relation) AttrKind(name string) (types.Kind, bool) {
	if k, ok := r.schema.KindOf(name); ok {
		return k, true
	}
	for _, c := range r.computed {
		if c.Name == name {
			return c.Kind, true
		}
	}
	return types.Invalid, false
}

// HasAttr reports whether name is a stored or computed attribute.
func (r *Relation) HasAttr(name string) bool {
	_, ok := r.AttrKind(name)
	return ok
}

// AttrNames returns all attribute names, stored first, then computed in
// definition order.
func (r *Relation) AttrNames() []string {
	out := make([]string, 0, r.schema.Len()+len(r.computed))
	for _, c := range r.schema.Columns() {
		out = append(out, c.Name)
	}
	for _, c := range r.computed {
		out = append(out, c.Name)
	}
	return out
}

// Append adds a tuple. The tuple must match the schema arity and types
// (null is accepted in any column).
func (r *Relation) Append(tuple []types.Value) error {
	if len(tuple) != r.schema.Len() {
		return fmt.Errorf("rel: %s: tuple arity %d != schema arity %d", r.name, len(tuple), r.schema.Len())
	}
	for i, v := range tuple {
		if !v.IsNull() && v.Kind() != r.schema.Col(i).Kind {
			return fmt.Errorf("rel: %s: column %q wants %s, got %s",
				r.name, r.schema.Col(i).Name, r.schema.Col(i).Kind, v.Kind())
		}
	}
	row := r.Len()
	if r.cols != nil {
		cs, err := r.cols.withAppend(tuple)
		if err != nil {
			return fmt.Errorf("rel: %s: %w", r.name, err)
		}
		r.cols = cs
	} else {
		r.tuples = append(r.tuples, tuple)
	}
	for col, idx := range r.indexes {
		v := tuple[r.schema.Index(col)]
		if !v.IsNull() {
			idx.Insert(v, row)
		}
	}
	r.bumpGen()
	return nil
}

// MustAppend is Append that panics on error, for fixtures and generators.
func (r *Relation) MustAppend(tuple []types.Value) {
	if err := r.Append(tuple); err != nil {
		panic(err)
	}
}

// Tuple returns the i'th stored tuple. The returned slice must not be
// mutated; use Update. For chunk-backed relations it decodes a fresh
// slice; a chunk read error (file-backed sources only) panics, matching
// the out-of-range behavior of the slice read — bulk paths that want an
// error use a reader or Cursor instead.
func (r *Relation) Tuple(i int) []types.Value {
	t, err := r.tupleAt(i)
	if err != nil {
		panic(fmt.Sprintf("rel: %s: reading tuple %d: %v", r.name, i, err))
	}
	return t
}

// Row binds tuple i to the relation for attribute access; it implements
// expr.Env including computed attributes.
func (r *Relation) Row(i int) Row { return Row{rel: r, idx: i} }

// Update replaces column col of tuple row with v, maintaining indexes.
// This is the primitive beneath the Section 8 update machinery.
func (r *Relation) Update(row int, col string, v types.Value) error {
	ci := r.schema.Index(col)
	if ci < 0 {
		return fmt.Errorf("rel: %s: no stored column %q (computed attributes cannot be updated)", r.name, col)
	}
	if row < 0 || row >= r.Len() {
		return fmt.Errorf("rel: %s: row %d out of range", r.name, row)
	}
	if !v.IsNull() && v.Kind() != r.schema.Col(ci).Kind {
		return fmt.Errorf("rel: %s: column %q wants %s, got %s", r.name, col, r.schema.Col(ci).Kind, v.Kind())
	}
	old := r.storedValue(row, ci)
	if idx, ok := r.indexes[col]; ok {
		if !old.IsNull() {
			idx.Delete(old, row)
		}
		if !v.IsNull() {
			idx.Insert(v, row)
		}
	}
	if r.cols != nil {
		// Copy-on-write the affected chunk; every other chunk slot is
		// shared with the previous version.
		cs, err := r.cols.withUpdate(row, ci, v)
		if err != nil {
			return fmt.Errorf("rel: %s: %w", r.name, err)
		}
		r.cols = cs
		r.bumpGen()
		return nil
	}
	// Copy-on-write the tuple so derived relations sharing storage keep a
	// consistent view until re-evaluated.
	nt := append([]types.Value(nil), r.tuples[row]...)
	nt[ci] = v
	r.tuples[row] = nt
	r.bumpGen()
	return nil
}

// CreateIndex builds a B-tree index on a stored column.
func (r *Relation) CreateIndex(col string) error {
	ci := r.schema.Index(col)
	if ci < 0 {
		return fmt.Errorf("rel: %s: cannot index %q: no such stored column", r.name, col)
	}
	if r.indexes == nil {
		r.indexes = make(map[string]*btree.Tree)
	}
	if _, dup := r.indexes[col]; dup {
		return fmt.Errorf("rel: %s: index on %q already exists", r.name, col)
	}
	t := &btree.Tree{}
	rd := r.reader()
	for row, n := 0, r.Len(); row < n; row++ {
		if v := rd.value(row, ci); !v.IsNull() {
			t.Insert(v, row)
		}
	}
	if err := rd.Err(); err != nil {
		return fmt.Errorf("rel: %s: indexing %q: %w", r.name, col, err)
	}
	r.indexes[col] = t
	return nil
}

// Index returns the index on col, if any.
func (r *Relation) Index(col string) (*btree.Tree, bool) {
	t, ok := r.indexes[col]
	return t, ok
}

// AddComputed defines a new computed attribute. The definition may depend
// only on other attributes of the relation (Section 5.3); this is enforced
// by type checking against the relation's current scope, which also
// prevents definition cycles because an attribute can only reference
// attributes that already exist.
func (r *Relation) AddComputed(name string, def expr.Node) error {
	if r.HasAttr(name) {
		return fmt.Errorf("rel: %s: attribute %q already exists", r.name, name)
	}
	k, err := expr.Check(def, r)
	if err != nil {
		return fmt.Errorf("rel: %s: bad definition for %q: %w", r.name, name, err)
	}
	r.computed = append(r.computed, Computed{Name: name, Kind: k, Expr: def})
	r.bumpGen()
	return nil
}

// SetComputed replaces the definition of an existing computed attribute
// (the Set Attribute operation of Figure 5 applied to a method attribute).
// The new definition is checked against a scope that excludes the
// attribute itself and everything defined after it, preserving the no-
// forward-reference invariant.
func (r *Relation) SetComputed(name string, def expr.Node) error {
	for i, c := range r.computed {
		if c.Name != name {
			continue
		}
		k, err := expr.Check(def, prefixScope{r: r, upto: i})
		if err != nil {
			return fmt.Errorf("rel: %s: bad definition for %q: %w", r.name, name, err)
		}
		if k != c.Kind {
			// Changing the kind is allowed only if no later computed
			// attribute references this one with the old kind.
			for _, later := range r.computed[i+1:] {
				for _, ref := range expr.Refs(later.Expr) {
					if ref == name {
						return fmt.Errorf("rel: %s: cannot change %q from %s to %s: %q depends on it",
							r.name, name, c.Kind, k, later.Name)
					}
				}
			}
		}
		r.computed[i] = Computed{Name: name, Kind: k, Expr: def}
		r.bumpGen()
		return nil
	}
	return fmt.Errorf("rel: %s: no computed attribute %q", r.name, name)
}

// RemoveComputed deletes a computed attribute, refusing if a later
// computed attribute depends on it.
func (r *Relation) RemoveComputed(name string) error {
	for i, c := range r.computed {
		if c.Name != name {
			continue
		}
		for _, later := range r.computed[i+1:] {
			for _, ref := range expr.Refs(later.Expr) {
				if ref == name {
					return fmt.Errorf("rel: %s: cannot remove %q: %q depends on it", r.name, name, later.Name)
				}
			}
		}
		r.computed = append(r.computed[:i], r.computed[i+1:]...)
		r.bumpGen()
		return nil
	}
	return fmt.Errorf("rel: %s: no computed attribute %q", r.name, name)
}

// prefixScope exposes stored columns plus the first upto computed
// attributes, for checking redefinitions.
type prefixScope struct {
	r    *Relation
	upto int
}

// AttrKind implements expr.Scope.
func (p prefixScope) AttrKind(name string) (types.Kind, bool) {
	if k, ok := p.r.schema.KindOf(name); ok {
		return k, true
	}
	for _, c := range p.r.computed[:p.upto] {
		if c.Name == name {
			return c.Kind, true
		}
	}
	return types.Invalid, false
}

// ShallowClone returns a relation sharing tuple storage but with private
// computed-attribute definitions, so attribute boxes can extend a derived
// relation without mutating their input. Indexes are not carried (they
// belong to base tables).
func (r *Relation) ShallowClone() *Relation {
	return &Relation{
		name:     r.name,
		schema:   r.schema,
		tuples:   r.tuples,
		cols:     r.cols,
		computed: append([]Computed(nil), r.computed...),
		provBase: r.provBase,
		provRows: r.provRows,
	}
}

// Clone returns a relation with copied tuple storage and attribute
// definitions, used by the undo machinery and by Replace Box.
func (r *Relation) Clone() *Relation {
	out := &Relation{
		name:     r.name,
		schema:   r.schema,
		computed: append([]Computed(nil), r.computed...),
	}
	if r.cols != nil {
		// Chunks are immutable, so sharing the store IS a deep copy:
		// no future mutation of either relation can reach the other.
		out.cols = r.cols
		return out
	}
	out.tuples = make([][]types.Value, len(r.tuples))
	for i, t := range r.tuples {
		out.tuples[i] = append([]types.Value(nil), t...)
	}
	return out
}

// CowClone returns a copy-on-write clone for the db write path: the
// outer tuples slice, the computed-attribute list, and the secondary
// indexes are fresh, while the per-row tuple slices are shared with the
// original. Because Update already replaces a row's slice instead of
// mutating it in place, any mutation applied to the clone — Append,
// Update, computed-attribute edits, index maintenance — is invisible to
// holders of the original: the clone is the next version of the table,
// the original remains an immutable snapshot. Cost is O(rows) pointer
// copies plus an index copy, versus Clone's O(rows × cols) value
// copies. The clone starts unstamped, so the first cache to observe it
// receives a fresh generation. Chunk-backed storage needs no copy at
// all: colStore values are immutable, so sharing the pointer is CoW —
// mutators install a new store that shares every untouched chunk slot.
func (r *Relation) CowClone() *Relation {
	out := &Relation{
		name:     r.name,
		schema:   r.schema,
		tuples:   append([][]types.Value(nil), r.tuples...),
		cols:     r.cols,
		computed: append([]Computed(nil), r.computed...),
		provBase: r.provBase,
		provRows: r.provRows,
	}
	if r.indexes != nil {
		out.indexes = make(map[string]*btree.Tree, len(r.indexes))
		for col, idx := range r.indexes {
			out.indexes[col] = idx.Clone()
		}
	}
	return out
}

// derive builds an anonymous relation sharing this relation's computed
// attributes but with new tuple storage; operators use it.
func (r *Relation) derive(schema *Schema, keepComputed bool) *Relation {
	out := &Relation{schema: schema}
	if keepComputed {
		// Keep only computed attributes whose references survive in the
		// new schema or in earlier surviving computed attributes.
		for _, c := range r.computed {
			ok := true
			for _, ref := range expr.Refs(c.Expr) {
				if !out.HasAttr(ref) && !schemaHas(schema, ref) {
					ok = false
					break
				}
			}
			if ok && !schemaHas(schema, c.Name) {
				out.computed = append(out.computed, c)
			}
		}
	}
	return out
}

func schemaHas(s *Schema, name string) bool { return s.Has(name) }

// String renders a compact description for program-window labels.
func (r *Relation) String() string {
	name := r.name
	if name == "" {
		name = "<derived>"
	}
	extra := ""
	if len(r.computed) > 0 {
		names := make([]string, len(r.computed))
		for i, c := range r.computed {
			names[i] = c.Name
		}
		extra = " +" + strings.Join(names, ",")
	}
	return fmt.Sprintf("%s%s%s [%d tuples]", name, r.schema, extra, r.Len())
}

// Row is one tuple bound to its relation; it implements expr.Env over
// stored and computed attributes. Computed attributes are evaluated on
// demand — "actually computing the values of these attributes should be
// avoided except where necessary" (Section 5.1) — so a Row held by a
// culled tuple costs nothing.
type Row struct {
	rel *Relation
	idx int
}

// Index returns the row's position in the relation.
func (w Row) Index() int { return w.idx }

// Relation returns the owning relation.
func (w Row) Relation() *Relation { return w.rel }

// AttrValue implements expr.Env.
func (w Row) AttrValue(name string) (types.Value, bool) {
	if i := w.rel.schema.Index(name); i >= 0 {
		return w.rel.storedValue(w.idx, i), true
	}
	for _, c := range w.rel.computed {
		if c.Name == name {
			v, err := expr.Eval(c.Expr, w)
			if err != nil {
				return types.Null, true // null on evaluation failure, attribute exists
			}
			return v, true
		}
	}
	return types.Null, false
}

// Attr returns the named attribute value, or null if absent.
func (w Row) Attr(name string) types.Value {
	v, _ := w.AttrValue(name)
	return v
}

// rowCursor is a reusable expr.Env over one relation: scans rebind idx
// per row instead of boxing a fresh Row into the interface every
// iteration, so the interpreted fallback paths allocate once per scan.
// Semantics match Row.AttrValue exactly, including the evaluate-to-null
// swallowing of computed-attribute errors. Stored-column access goes
// through an embedded rowReader so one chunk decode serves a whole run
// of rows on chunk-backed relations.
type rowCursor struct {
	rel *Relation
	idx int
	rd  rowReader
}

func newRowCursor(r *Relation) *rowCursor {
	return &rowCursor{rel: r, rd: r.reader()}
}

// AttrValue implements expr.Env.
func (c *rowCursor) AttrValue(name string) (types.Value, bool) {
	if i := c.rel.schema.Index(name); i >= 0 {
		if c.rd.r == nil {
			c.rd = c.rel.reader()
		}
		return c.rd.value(c.idx, i), true
	}
	for _, cc := range c.rel.computed {
		if cc.Name == name {
			v, err := expr.Eval(cc.Expr, c)
			if err != nil {
				return types.Null, true
			}
			return v, true
		}
	}
	return types.Null, false
}

// Cursor is the public sequential-access companion of Row: it walks a
// relation row by row, decoding one chunk at a time on chunk-backed
// relations and pinning the current chunk against eviction while it is
// in use. It implements expr.Env with Row's exact semantics, so display
// functions evaluate against it unchanged. Viewers use a Cursor for
// their per-frame sweeps (cull, spatial-index build, display eval)
// instead of per-row Row bindings.
type Cursor struct {
	c rowCursor
}

// NewCursor returns a cursor positioned before the first row; call Seek
// before reading.
func (r *Relation) NewCursor() *Cursor {
	return &Cursor{c: rowCursor{rel: r, idx: -1, rd: r.reader()}}
}

// Seek positions the cursor on row i.
func (cu *Cursor) Seek(i int) { cu.c.idx = i }

// Index returns the current row position.
func (cu *Cursor) Index() int { return cu.c.idx }

// AttrValue implements expr.Env at the current row.
func (cu *Cursor) AttrValue(name string) (types.Value, bool) { return cu.c.AttrValue(name) }

// Attr returns the named attribute at the current row, or null.
func (cu *Cursor) Attr(name string) types.Value {
	v, _ := cu.c.AttrValue(name)
	return v
}

// Col returns stored column i (a Schema position) at the current row:
// AttrValue for that column's name without the name lookup.
func (cu *Cursor) Col(i int) types.Value {
	c := &cu.c
	if c.rd.r == nil {
		c.rd = c.rel.reader()
	}
	return c.rd.value(c.idx, i)
}

// Err reports the first chunk read error the cursor hit, if any.
func (cu *Cursor) Err() error { return cu.c.rd.Err() }
