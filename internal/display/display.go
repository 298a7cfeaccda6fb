// Package display implements the three displayable types of Tioga-2
// (Section 2):
//
//	G = Group(C1, ..., Cn)      side-by-side layouts of viewing spaces
//	C = Composite(R1, ..., Rn)  overlays within one viewing space
//	R = extended relations with location and display attributes
//
// together with the type equivalences R = Composite(R) and C = Group(C)
// and the lifting machinery that lets operations defined on R or C apply
// to higher types once the user selects the component.
package display

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/draw"
	"repro/internal/geom"
	"repro/internal/rel"
	"repro/internal/types"
)

// metaGenCounter issues metadata generation stamps for Extended values,
// mirroring the per-relation stamps of internal/rel: globally unique,
// never reused, 0 meaning "not yet assigned". Two Extended values never
// share a Meta stamp, so a Gen identifies one Extended in one metadata
// state over one relation snapshot.
var metaGenCounter atomic.Int64

// Gen identifies a render-relevant snapshot of an Extended relation: the
// Extended's own metadata stamp (location attributes, display functions,
// sequence layout) paired with its relation's data stamp. Viewer-side
// caches — the spatial cull index, the display-list memo, and the
// wormhole interior cache — key on Gen values, so any mutation on either
// level retires every cached artifact derived from the old state.
type Gen struct {
	Meta int64 // Extended metadata stamp (unique per Extended instance)
	Data int64 // rel.Relation generation (see rel.Generation)
}

// Kind distinguishes displayable types for dataflow port typing.
type Kind int

// Displayable kinds. Scalar is used by runtime-parameter ports.
const (
	RKind Kind = iota + 1
	CKind
	GKind
	ScalarKind
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case RKind:
		return "R"
	case CKind:
		return "C"
	case GKind:
		return "G"
	case ScalarKind:
		return "scalar"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Displayable is any value a viewer can render.
type Displayable interface {
	// DisplayKind returns the displayable's type.
	DisplayKind() Kind
	// Dim returns the dimensionality of the visualization space.
	Dim() int
}

// NamedDisplay is one display attribute: a name and the function that
// computes a tuple's display list. Displays[0] of an Extended is the
// distinguished "display" attribute; the rest are the alternative
// representations of Section 5.1.
type NamedDisplay struct {
	Name string
	Fn   draw.Func
}

// Extended is an extended relation R: a relation plus the designation of
// its location attributes (x, y, then slider dimensions) and its display
// attributes. "The visualization of a relation R is the sum of the
// visualizations of each tuple of R" — the viewer walks tuples, reads the
// location attributes, evaluates Displays[0], and paints.
//
// ElevRange is the relation's Set Range (Section 6.1): outside it, the
// relation contributes nothing to the canvas. Ranges crossing zero make
// the display visible from both the top side and the underside (rear view
// mirror, Section 6.3).
type Extended struct {
	Label     string
	Rel       *rel.Relation
	LocAttrs  []string // >= 2; [0] is x, [1] is y, the rest are sliders
	Displays  []NamedDisplay
	ElevRange geom.Range
	// SeqLayout marks the default location of Section 5.2: "the x-location
	// is 0 and the y-location is the sequence number of the tuple". When
	// set, LocAttrs is empty and the visualization is 2-dimensional.
	SeqLayout bool

	// metaGen is the metadata stamp: 0 until first observed, then unique,
	// replaced on metadata mutation (SwapDisplays, SwapLocations,
	// BumpGeneration). Accessed atomically; not copied by Clone, so every
	// clone starts a fresh cache lineage even before it is mutated.
	metaGen int64
}

// Generation returns the Gen identifying this Extended's current
// render-relevant state. The Meta stamp is assigned lazily on first
// observation, which covers Extended values built by struct literal
// (Clone, the dataflow attribute boxes) as well as by the constructors.
func (e *Extended) Generation() Gen {
	return Gen{Meta: e.metaGeneration(), Data: e.Rel.Generation()}
}

func (e *Extended) metaGeneration() int64 {
	if g := atomic.LoadInt64(&e.metaGen); g != 0 {
		return g
	}
	g := metaGenCounter.Add(1)
	if atomic.CompareAndSwapInt64(&e.metaGen, 0, g) {
		return g
	}
	return atomic.LoadInt64(&e.metaGen)
}

// BumpGeneration retires the Extended's Meta stamp, invalidating every
// cache entry keyed on its previous Gen. Metadata mutators call it
// internally; dataflow.Invalidate calls it on cached displayables so an
// externally triggered invalidation flows through the same spine as an
// ordinary data mutation.
func (e *Extended) BumpGeneration() {
	atomic.StoreInt64(&e.metaGen, metaGenCounter.Add(1))
}

// SeqRowHeight is the vertical allotment per tuple under the default
// sequence layout, sized to the default text display.
const SeqRowHeight = 10

// DefaultElevRange makes a display visible from any positive elevation
// (top side only).
var DefaultElevRange = geom.Range{Lo: 0, Hi: math.Inf(1)}

// NewExtended validates and builds an extended relation. Every location
// attribute must be a numeric attribute of the relation, and at least one
// display must be supplied (Tioga-2 requires every relation to have at
// least one display attribute).
func NewExtended(label string, r *rel.Relation, locAttrs []string, displays []NamedDisplay) (*Extended, error) {
	if len(locAttrs) < 2 {
		return nil, fmt.Errorf("display: %s: need at least x and y location attributes, got %d", label, len(locAttrs))
	}
	seen := make(map[string]bool)
	for _, a := range locAttrs {
		k, ok := r.AttrKind(a)
		if !ok {
			return nil, fmt.Errorf("display: %s: location attribute %q not in relation", label, a)
		}
		if !k.Numeric() {
			return nil, fmt.Errorf("display: %s: location attribute %q has non-numeric type %s", label, a, k)
		}
		if seen[a] {
			return nil, fmt.Errorf("display: %s: duplicate location attribute %q", label, a)
		}
		seen[a] = true
	}
	if len(displays) == 0 {
		return nil, fmt.Errorf("display: %s: a relation must have at least one display attribute", label)
	}
	for i, d := range displays {
		if d.Fn == nil {
			return nil, fmt.Errorf("display: %s: display attribute %d (%q) has no function", label, i, d.Name)
		}
	}
	return &Extended{
		Label:     label,
		Rel:       r,
		LocAttrs:  append([]string(nil), locAttrs...),
		Displays:  append([]NamedDisplay(nil), displays...),
		ElevRange: DefaultElevRange,
	}, nil
}

// NewDefaultExtended builds the default visualization of a relation
// (Section 5.2): sequence layout with the ASCII tuple display over all
// attributes. Every Add Table box produces this, guaranteeing "every
// result of a user action has a valid visual representation".
func NewDefaultExtended(label string, r *rel.Relation, columnWidth float64) *Extended {
	if columnWidth <= 0 {
		columnWidth = 80
	}
	return &Extended{
		Label: label,
		Rel:   r,
		Displays: []NamedDisplay{{
			Name: "display",
			Fn:   draw.DefaultTupleDisplay(r.AttrNames(), columnWidth, draw.Black),
		}},
		ElevRange: DefaultElevRange,
		SeqLayout: true,
	}
}

// DisplayKind implements Displayable.
func (e *Extended) DisplayKind() Kind { return RKind }

// Dim implements Displayable: the number of location attributes (2 under
// the default sequence layout).
func (e *Extended) Dim() int {
	if e.SeqLayout {
		return 2
	}
	return len(e.LocAttrs)
}

// Clone returns a copy sharing the underlying relation but with private
// metadata, so Set Range or Swap Attributes on one overlay leaves others
// untouched.
func (e *Extended) Clone() *Extended {
	return &Extended{
		Label:     e.Label,
		Rel:       e.Rel,
		LocAttrs:  append([]string(nil), e.LocAttrs...),
		Displays:  append([]NamedDisplay(nil), e.Displays...),
		ElevRange: e.ElevRange,
		SeqLayout: e.SeqLayout,
	}
}

// Location reads tuple row's position in n-space; missing or null
// coordinates read as 0 so a tuple never silently vanishes off-canvas
// without the programmer noticing a cluster at the origin.
func (e *Extended) Location(row int) []float64 {
	if e.SeqLayout {
		// Tuples stack downward from the origin so the first tuple sits
		// at the top of the default table view.
		return []float64{0, -float64(row) * SeqRowHeight}
	}
	out := make([]float64, len(e.LocAttrs))
	w := e.Rel.Row(row)
	for i, a := range e.LocAttrs {
		if f, ok := w.Attr(a).AsFloat(); ok {
			out[i] = f
		}
	}
	return out
}

// ApproxExtent estimates how far a tuple's display may reach from its
// location, in canvas units. Viewers widen their cull window by it so a
// tuple anchored off-screen whose display reaches in is not dropped. For
// the default sequence layout the extent is the full row width; custom
// displays rely on the viewer's own margin.
func (e *Extended) ApproxExtent() float64 {
	if e.SeqLayout {
		return float64(e.Rel.Schema().Len()+len(e.Rel.Computed())) * 80
	}
	return 0
}

// Display evaluates the active display attribute for tuple row.
func (e *Extended) Display(row int) (draw.List, error) {
	return e.Displays[0].Fn(e.Rel.Row(row))
}

// DisplayNamed evaluates a specific display attribute by name.
func (e *Extended) DisplayNamed(name string, row int) (draw.List, error) {
	for _, d := range e.Displays {
		if d.Name == name {
			return d.Fn(e.Rel.Row(row))
		}
	}
	return nil, fmt.Errorf("display: %s: no display attribute %q", e.Label, name)
}

// Sweep is a cursor-bound view of an Extended for frame loops (cull,
// spatial-index build, display evaluation): the embedded rel.Cursor
// decodes one chunk at a time on chunk-backed relations instead of
// faulting per attribute per row, and display functions evaluate
// against it unchanged (it is an expr.Env with Row's exact semantics).
// A Sweep is not safe for concurrent use — parallel render workers take
// one each.
type Sweep struct {
	e    *Extended
	cur  *rel.Cursor
	cols []int     // schema position of each location attribute; -1 for computed
	loc  []float64 // Location's result, reused across calls
}

// NewSweep returns a sweep over e's relation.
func (e *Extended) NewSweep() *Sweep {
	s := &Sweep{e: e, cur: e.Rel.NewCursor()}
	if !e.SeqLayout {
		s.cols = make([]int, len(e.LocAttrs))
		for i, a := range e.LocAttrs {
			s.cols[i] = e.Rel.Schema().Index(a)
		}
		s.loc = make([]float64, len(e.LocAttrs))
	}
	return s
}

// Location is Extended.Location at row, read through the sweep's cursor.
// The slice is the sweep's own and is overwritten by the next call.
func (s *Sweep) Location(row int) []float64 {
	if s.e.SeqLayout {
		return []float64{0, -float64(row) * SeqRowHeight}
	}
	s.cur.Seek(row)
	for i, c := range s.cols {
		var v types.Value
		if c >= 0 {
			v = s.cur.Col(c)
		} else {
			v = s.cur.Attr(s.e.LocAttrs[i])
		}
		s.loc[i], _ = v.AsFloat() // 0 when not numeric
	}
	return s.loc
}

// Display evaluates the active display attribute for row.
func (s *Sweep) Display(row int) (draw.List, error) {
	s.cur.Seek(row)
	return s.e.Displays[0].Fn(s.cur)
}

// DisplayNamed evaluates a specific display attribute by name for row.
func (s *Sweep) DisplayNamed(name string, row int) (draw.List, error) {
	for _, d := range s.e.Displays {
		if d.Name == name {
			s.cur.Seek(row)
			return d.Fn(s.cur)
		}
	}
	return nil, fmt.Errorf("display: %s: no display attribute %q", s.e.Label, name)
}

// Err reports the first storage read error the sweep encountered.
func (s *Sweep) Err() error { return s.cur.Err() }

// DisplayIndex returns the position of the named display attribute, or -1.
func (e *Extended) DisplayIndex(name string) int {
	for i, d := range e.Displays {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// SwapDisplays interchanges two display attributes. Swapping index 0 with
// an alternative changes the visualization of the data (Figure 5's Swap
// Attributes applied to displays, used by the magnifying glass of
// Figure 9).
func (e *Extended) SwapDisplays(a, b string) error {
	i, j := e.DisplayIndex(a), e.DisplayIndex(b)
	if i < 0 {
		return fmt.Errorf("display: %s: no display attribute %q", e.Label, a)
	}
	if j < 0 {
		return fmt.Errorf("display: %s: no display attribute %q", e.Label, b)
	}
	e.Displays[i], e.Displays[j] = e.Displays[j], e.Displays[i]
	e.BumpGeneration()
	return nil
}

// SwapLocations interchanges two location attributes, "rotating" the
// canvas when x and y are swapped.
func (e *Extended) SwapLocations(a, b string) error {
	i, j := -1, -1
	for k, n := range e.LocAttrs {
		if n == a {
			i = k
		}
		if n == b {
			j = k
		}
	}
	if i < 0 {
		return fmt.Errorf("display: %s: no location attribute %q", e.Label, a)
	}
	if j < 0 {
		return fmt.Errorf("display: %s: no location attribute %q", e.Label, b)
	}
	e.LocAttrs[i], e.LocAttrs[j] = e.LocAttrs[j], e.LocAttrs[i]
	e.BumpGeneration()
	return nil
}

// Layer is one component of a composite: an extended relation plus the
// n-dimensional offset established when it was overlaid (Section 6.1
// allows "an explicit n-dimensional offset, or dragging one canvas over
// the other").
type Layer struct {
	Ext    *Extended
	Offset []float64 // length = Ext.Dim(); nil means zero offset
}

// Composite overlays extended relations in one viewing space. Layer order
// is drawing order: Layers[0] is painted first (bottom). The composite's
// dimension is the maximum component dimension; lower-dimensional
// components are invariant in the extra dimensions (the Louisiana map of
// Figure 7 ignores the Altitude slider).
type Composite struct {
	Label  string
	Layers []*Layer
}

// NewComposite wraps extended relations into a composite. A dimension
// mismatch among components is legal but reported through the returned
// warning string, mirroring the paper's "Tioga-2 warns about the
// mismatch" while letting the user proceed.
func NewComposite(label string, exts ...*Extended) (*Composite, string, error) {
	if len(exts) == 0 {
		return nil, "", fmt.Errorf("display: composite %q needs at least one relation", label)
	}
	c := &Composite{Label: label}
	warning := ""
	dim := exts[0].Dim()
	for _, e := range exts {
		if e.Dim() != dim {
			warning = fmt.Sprintf("display: composite %q mixes dimensions %d and %d; lower-dimensional relations are invariant in the extra dimensions", label, dim, e.Dim())
			if e.Dim() > dim {
				dim = e.Dim()
			}
		}
		c.Layers = append(c.Layers, &Layer{Ext: e})
	}
	return c, warning, nil
}

// BumpGeneration retires the Meta stamp of every component relation, so
// invalidating a cached composite invalidates everything derived from it.
func (c *Composite) BumpGeneration() {
	for _, l := range c.Layers {
		l.Ext.BumpGeneration()
	}
}

// FromR implements the type equivalence R = Composite(R).
func FromR(e *Extended) *Composite {
	return &Composite{Label: e.Label, Layers: []*Layer{{Ext: e}}}
}

// DisplayKind implements Displayable.
func (c *Composite) DisplayKind() Kind { return CKind }

// Dim implements Displayable: the maximum component dimension.
func (c *Composite) Dim() int {
	d := 0
	for _, l := range c.Layers {
		if l.Ext.Dim() > d {
			d = l.Ext.Dim()
		}
	}
	return d
}

// Clone deep-copies the composite structure (sharing relations).
func (c *Composite) Clone() *Composite {
	out := &Composite{Label: c.Label, Layers: make([]*Layer, len(c.Layers))}
	for i, l := range c.Layers {
		out.Layers[i] = &Layer{Ext: l.Ext.Clone(), Offset: append([]float64(nil), l.Offset...)}
	}
	return out
}

// Overlay merges other into c with the given n-dimensional offset applied
// to other's layers (Section 6.1). other's layers draw on top.
func (c *Composite) Overlay(other *Composite, offset []float64) (warning string) {
	if other.Dim() != c.Dim() {
		warning = fmt.Sprintf("display: overlaying %d-dimensional %q onto %d-dimensional %q; extra dimensions treated as invariant",
			other.Dim(), other.Label, c.Dim(), c.Label)
	}
	for _, l := range other.Layers {
		nl := &Layer{Ext: l.Ext, Offset: addOffsets(l.Offset, offset, l.Ext.Dim())}
		c.Layers = append(c.Layers, nl)
	}
	return warning
}

func addOffsets(a, b []float64, dim int) []float64 {
	if a == nil && b == nil {
		return nil
	}
	out := make([]float64, dim)
	for i := range out {
		if i < len(a) {
			out[i] += a[i]
		}
		if i < len(b) {
			out[i] += b[i]
		}
	}
	return out
}

// Shuffle moves the layer at index i to the top of the drawing order
// (Section 6.1's Shuffle command).
func (c *Composite) Shuffle(i int) error {
	if i < 0 || i >= len(c.Layers) {
		return fmt.Errorf("display: %s: shuffle index %d out of range (have %d layers)", c.Label, i, len(c.Layers))
	}
	l := c.Layers[i]
	c.Layers = append(append(c.Layers[:i:i], c.Layers[i+1:]...), l)
	return nil
}

// LayerIndex returns the index of the layer whose extended relation is e,
// or -1.
func (c *Composite) LayerIndex(e *Extended) int {
	for i, l := range c.Layers {
		if l.Ext == e {
			return i
		}
	}
	return -1
}

// Layout arranges group members (Section 7.3: "side-by-side, arranged
// vertically, or laid out in a tabular fashion").
type Layout int

// Group layouts.
const (
	Horizontal Layout = iota
	Vertical
	Tabular
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case Horizontal:
		return "horizontal"
	case Vertical:
		return "vertical"
	case Tabular:
		return "tabular"
	}
	return fmt.Sprintf("layout(%d)", int(l))
}

// Group is a group displayable: composites arranged by a layout. Each
// member has its own viewing space; the viewer keeps an independent
// position per member (Section 7.3).
type Group struct {
	Label   string
	Members []*Composite
	Layout  Layout
	Cols    int // for Tabular: members per row
}

// NewGroup stitches composites into a group.
func NewGroup(label string, layout Layout, cols int, members ...*Composite) (*Group, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("display: group %q needs at least one composite", label)
	}
	if layout == Tabular && cols <= 0 {
		return nil, fmt.Errorf("display: tabular group %q needs a positive column count", label)
	}
	return &Group{Label: label, Members: append([]*Composite(nil), members...), Layout: layout, Cols: cols}, nil
}

// BumpGeneration retires the Meta stamp of every member's relations.
func (g *Group) BumpGeneration() {
	for _, m := range g.Members {
		m.BumpGeneration()
	}
}

// FromC implements the type equivalence C = Group(C).
func FromC(c *Composite) *Group {
	return &Group{Label: c.Label, Members: []*Composite{c}, Layout: Horizontal}
}

// DisplayKind implements Displayable.
func (g *Group) DisplayKind() Kind { return GKind }

// Dim implements Displayable: groups mix viewing spaces, so the group's
// dimension is the maximum member dimension (each member pans in its own
// space).
func (g *Group) Dim() int {
	d := 0
	for _, m := range g.Members {
		if m.Dim() > d {
			d = m.Dim()
		}
	}
	return d
}

// Clone deep-copies the group structure.
func (g *Group) Clone() *Group {
	out := &Group{Label: g.Label, Layout: g.Layout, Cols: g.Cols, Members: make([]*Composite, len(g.Members))}
	for i, m := range g.Members {
		out.Members[i] = m.Clone()
	}
	return out
}

// Promote lifts any displayable to a group through the type equivalences,
// the canonical form used by viewers.
func Promote(d Displayable) *Group {
	switch d := d.(type) {
	case *Extended:
		return FromC(FromR(d))
	case *Composite:
		return FromC(d)
	case *Group:
		return d
	}
	panic(fmt.Sprintf("display: unknown displayable %T", d))
}

// Selection identifies one relation within a group for lifted operations:
// when an R-typed operation is applied to a C or G, "Tioga-2 asks the user
// for the composite within the group, and the relation within that
// composite" (Section 2).
type Selection struct {
	Member int // composite within the group
	Layer  int // relation within the composite
}

// SelectRelation resolves a selection against a displayable promoted to a
// group, returning the addressed extended relation.
func SelectRelation(d Displayable, sel Selection) (*Extended, error) {
	g := Promote(d)
	if sel.Member < 0 || sel.Member >= len(g.Members) {
		return nil, fmt.Errorf("display: selection member %d out of range (group has %d composites)", sel.Member, len(g.Members))
	}
	c := g.Members[sel.Member]
	if sel.Layer < 0 || sel.Layer >= len(c.Layers) {
		return nil, fmt.Errorf("display: selection layer %d out of range (composite has %d relations)", sel.Layer, len(c.Layers))
	}
	return c.Layers[sel.Layer].Ext, nil
}

// ReplaceRelation rebuilds a displayable with the selected relation
// replaced — the reassembly "in the obvious way" that makes lifted
// operations transparent. The result has the same shape (R stays R,
// C stays C, G stays G).
func ReplaceRelation(d Displayable, sel Selection, repl *Extended) (Displayable, error) {
	switch d := d.(type) {
	case *Extended:
		if sel.Member != 0 || sel.Layer != 0 {
			return nil, fmt.Errorf("display: selection %+v out of range for a bare relation", sel)
		}
		return repl, nil
	case *Composite:
		if sel.Member != 0 {
			return nil, fmt.Errorf("display: selection member %d out of range for a bare composite", sel.Member)
		}
		out := d.Clone()
		if sel.Layer < 0 || sel.Layer >= len(out.Layers) {
			return nil, fmt.Errorf("display: selection layer %d out of range", sel.Layer)
		}
		out.Layers[sel.Layer].Ext = repl
		return out, nil
	case *Group:
		out := d.Clone()
		if sel.Member < 0 || sel.Member >= len(out.Members) {
			return nil, fmt.Errorf("display: selection member %d out of range", sel.Member)
		}
		c := out.Members[sel.Member]
		if sel.Layer < 0 || sel.Layer >= len(c.Layers) {
			return nil, fmt.Errorf("display: selection layer %d out of range", sel.Layer)
		}
		c.Layers[sel.Layer].Ext = repl
		return out, nil
	}
	return nil, fmt.Errorf("display: unknown displayable %T", d)
}
