package display

import (
	"testing"

	"repro/internal/draw"
	"repro/internal/expr"
	"repro/internal/geom"
	"repro/internal/rel"
	"repro/internal/types"
)

func stationsRel(t testing.TB) *rel.Relation {
	t.Helper()
	r := rel.New("S", rel.MustSchema(
		rel.Column{Name: "id", Kind: types.Int},
		rel.Column{Name: "name", Kind: types.Text},
		rel.Column{Name: "lon", Kind: types.Float},
		rel.Column{Name: "lat", Kind: types.Float},
		rel.Column{Name: "alt", Kind: types.Float},
	))
	for i := 0; i < 4; i++ {
		r.MustAppend([]types.Value{
			types.NewInt(int64(i)),
			types.NewText("s" + string(rune('a'+i))),
			types.NewFloat(float64(-91 - i)),
			types.NewFloat(float64(30 + i)),
			types.NewFloat(float64(i * 100)),
		})
	}
	return r
}

func circleDisplay() []NamedDisplay {
	return []NamedDisplay{{Name: "display", Fn: draw.ConstFunc(draw.List{draw.Circle{R: 1}})}}
}

func TestNewExtendedValidation(t *testing.T) {
	r := stationsRel(t)
	if _, err := NewExtended("e", r, []string{"lon"}, circleDisplay()); err == nil {
		t.Error("single location attribute accepted")
	}
	if _, err := NewExtended("e", r, []string{"lon", "name"}, circleDisplay()); err == nil {
		t.Error("non-numeric location attribute accepted")
	}
	if _, err := NewExtended("e", r, []string{"lon", "nosuch"}, circleDisplay()); err == nil {
		t.Error("missing location attribute accepted")
	}
	if _, err := NewExtended("e", r, []string{"lon", "lon"}, circleDisplay()); err == nil {
		t.Error("duplicate location attribute accepted")
	}
	if _, err := NewExtended("e", r, []string{"lon", "lat"}, nil); err == nil {
		t.Error("zero displays accepted")
	}
	e, err := NewExtended("e", r, []string{"lon", "lat", "alt"}, circleDisplay())
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 3 {
		t.Errorf("Dim = %d", e.Dim())
	}
	if e.DisplayKind() != RKind {
		t.Error("kind")
	}
}

func TestLocationRead(t *testing.T) {
	r := stationsRel(t)
	e, err := NewExtended("e", r, []string{"lon", "lat", "alt"}, circleDisplay())
	if err != nil {
		t.Fatal(err)
	}
	loc := e.Location(2)
	if loc[0] != -93 || loc[1] != 32 || loc[2] != 200 {
		t.Errorf("location = %v", loc)
	}
}

// A sweep reads locations through resolved column positions and a
// reused buffer; it must agree with Extended.Location on stored,
// computed and null location attributes.
func TestSweepLocationMatchesLocation(t *testing.T) {
	r := stationsRel(t)
	if err := r.AddComputed("alt2", expr.MustParse("alt * 2")); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(1, "lat", types.Null); err != nil {
		t.Fatal(err)
	}
	e, err := NewExtended("e", r, []string{"lon", "lat", "alt2"}, circleDisplay())
	if err != nil {
		t.Fatal(err)
	}
	sw := e.NewSweep()
	for row := 0; row < r.Len(); row++ {
		want := e.Location(row)
		got := sw.Location(row)
		if len(got) != len(want) {
			t.Fatalf("row %d: sweep location %v, want %v", row, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d: sweep location %v, want %v", row, got, want)
			}
		}
	}
}

func TestDefaultExtended(t *testing.T) {
	r := stationsRel(t)
	e := NewDefaultExtended("d", r, 60)
	if !e.SeqLayout || e.Dim() != 2 {
		t.Fatal("default extended not sequence layout")
	}
	// Sequence positions stack downward.
	if loc := e.Location(3); loc[0] != 0 || loc[1] != -3*SeqRowHeight {
		t.Errorf("seq location = %v", loc)
	}
	l, err := e.Display(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != r.Schema().Len() {
		t.Errorf("default display has %d fields, want %d", len(l), r.Schema().Len())
	}
}

func TestSwapDisplays(t *testing.T) {
	r := stationsRel(t)
	e, _ := NewExtended("e", r, []string{"lon", "lat"}, []NamedDisplay{
		{Name: "display", Fn: draw.ConstFunc(draw.List{draw.Circle{R: 1}})},
		{Name: "alt", Fn: draw.ConstFunc(draw.List{draw.Rect{W: 2, H: 2}})},
	})
	if err := e.SwapDisplays("display", "alt"); err != nil {
		t.Fatal(err)
	}
	if e.Displays[0].Name != "alt" {
		t.Error("swap did not reorder")
	}
	l, _ := e.Display(0)
	if _, ok := l[0].(draw.Rect); !ok {
		t.Error("active display did not change")
	}
	if err := e.SwapDisplays("display", "ghost"); err == nil {
		t.Error("missing display accepted")
	}
}

func TestSwapLocations(t *testing.T) {
	r := stationsRel(t)
	e, _ := NewExtended("e", r, []string{"lon", "lat"}, circleDisplay())
	if err := e.SwapLocations("lon", "lat"); err != nil {
		t.Fatal(err)
	}
	loc := e.Location(0)
	if loc[0] != 30 || loc[1] != -91 {
		t.Errorf("rotated location = %v", loc)
	}
	if err := e.SwapLocations("lon", "ghost"); err == nil {
		t.Error("missing location accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := stationsRel(t)
	e, _ := NewExtended("e", r, []string{"lon", "lat"}, circleDisplay())
	c := e.Clone()
	c.ElevRange = geom.Rg(1, 2)
	c.LocAttrs[0] = "lat"
	if e.ElevRange == c.ElevRange || e.LocAttrs[0] != "lon" {
		t.Error("clone aliases metadata")
	}
	if c.Rel != e.Rel {
		t.Error("clone should share the relation")
	}
}

func TestCompositeBasics(t *testing.T) {
	r := stationsRel(t)
	e1, _ := NewExtended("a", r, []string{"lon", "lat"}, circleDisplay())
	e2, _ := NewExtended("b", r, []string{"lon", "lat"}, circleDisplay())
	c, warn, err := NewComposite("c", e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if warn != "" {
		t.Errorf("unexpected warning %q", warn)
	}
	if c.Dim() != 2 || c.DisplayKind() != CKind || len(c.Layers) != 2 {
		t.Fatal("composite shape wrong")
	}
	if _, _, err := NewComposite("empty"); err == nil {
		t.Error("empty composite accepted")
	}
}

func TestCompositeDimensionMismatchWarns(t *testing.T) {
	r := stationsRel(t)
	flat, _ := NewExtended("flat", r, []string{"lon", "lat"}, circleDisplay())
	tall, _ := NewExtended("tall", r, []string{"lon", "lat", "alt"}, circleDisplay())
	c, warn, err := NewComposite("mix", flat, tall)
	if err != nil {
		t.Fatal(err)
	}
	if warn == "" {
		t.Error("no mismatch warning")
	}
	if c.Dim() != 3 {
		t.Errorf("composite dim = %d, want max 3", c.Dim())
	}
}

func TestOverlayAndShuffle(t *testing.T) {
	r := stationsRel(t)
	e1, _ := NewExtended("a", r, []string{"lon", "lat"}, circleDisplay())
	e2, _ := NewExtended("b", r, []string{"lon", "lat"}, circleDisplay())
	c1 := FromR(e1)
	c2 := FromR(e2)
	warn := c1.Overlay(c2, []float64{5, -5})
	if warn != "" {
		t.Errorf("same-dim overlay warned: %q", warn)
	}
	if len(c1.Layers) != 2 {
		t.Fatal("overlay did not add layers")
	}
	if c1.Layers[1].Offset[0] != 5 || c1.Layers[1].Offset[1] != -5 {
		t.Errorf("offset = %v", c1.Layers[1].Offset)
	}
	// Shuffle moves layer 0 to the top (end).
	if err := c1.Shuffle(0); err != nil {
		t.Fatal(err)
	}
	if c1.Layers[1].Ext != e1 {
		t.Error("shuffle did not move to top")
	}
	if err := c1.Shuffle(9); err == nil {
		t.Error("out-of-range shuffle accepted")
	}
	// Offsets compose through repeated overlays: c1's first layer (e2,
	// offset (5,-5)) lands in c3 with offset (6,-4).
	c3 := FromR(e1)
	c3.Overlay(c1, []float64{1, 1})
	composed := c3.Layers[1]
	if composed.Ext != e2 || composed.Offset[0] != 6 || composed.Offset[1] != -4 {
		t.Errorf("composed offset = %v on %s", composed.Offset, composed.Ext.Label)
	}
}

func TestGroups(t *testing.T) {
	r := stationsRel(t)
	e, _ := NewExtended("a", r, []string{"lon", "lat"}, circleDisplay())
	c := FromR(e)
	g, err := NewGroup("g", Vertical, 0, c, c.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if g.DisplayKind() != GKind || len(g.Members) != 2 {
		t.Fatal("group shape")
	}
	if _, err := NewGroup("g", Tabular, 0, c); err == nil {
		t.Error("tabular without cols accepted")
	}
	if _, err := NewGroup("g", Horizontal, 0); err == nil {
		t.Error("empty group accepted")
	}
}

func TestPromote(t *testing.T) {
	r := stationsRel(t)
	e, _ := NewExtended("a", r, []string{"lon", "lat"}, circleDisplay())
	g := Promote(e)
	if len(g.Members) != 1 || len(g.Members[0].Layers) != 1 {
		t.Fatal("R -> G promotion shape")
	}
	if g.Members[0].Layers[0].Ext != e {
		t.Fatal("promotion copied the relation")
	}
	c := FromR(e)
	if Promote(c).Members[0] != c {
		t.Fatal("C -> G promotion")
	}
	if Promote(g) != g {
		t.Fatal("G promotion should be identity")
	}
}

func TestSelectionAndReplace(t *testing.T) {
	r := stationsRel(t)
	e1, _ := NewExtended("a", r, []string{"lon", "lat"}, circleDisplay())
	e2, _ := NewExtended("b", r, []string{"lon", "lat"}, circleDisplay())
	c, _, _ := NewComposite("c", e1, e2)
	g, _ := NewGroup("g", Horizontal, 0, c)

	got, err := SelectRelation(g, Selection{Member: 0, Layer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != e2 {
		t.Fatal("selection picked wrong relation")
	}
	if _, err := SelectRelation(g, Selection{Member: 1, Layer: 0}); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := SelectRelation(g, Selection{Member: 0, Layer: 5}); err == nil {
		t.Error("out-of-range layer accepted")
	}

	// Replacement reassembles without mutating the original.
	repl, _ := NewExtended("new", r, []string{"lat", "lon"}, circleDisplay())
	out, err := ReplaceRelation(g, Selection{Member: 0, Layer: 1}, repl)
	if err != nil {
		t.Fatal(err)
	}
	og := out.(*Group)
	if og.Members[0].Layers[1].Ext != repl {
		t.Fatal("replacement missing")
	}
	if g.Members[0].Layers[1].Ext != e2 {
		t.Fatal("original mutated")
	}
	// R and C shapes preserved.
	outR, err := ReplaceRelation(e1, Selection{}, repl)
	if err != nil {
		t.Fatal(err)
	}
	if outR != repl {
		t.Fatal("R replacement")
	}
	outC, err := ReplaceRelation(c, Selection{Layer: 0}, repl)
	if err != nil {
		t.Fatal(err)
	}
	if outC.(*Composite).Layers[0].Ext != repl {
		t.Fatal("C replacement")
	}
}

func TestDisplayNamed(t *testing.T) {
	r := stationsRel(t)
	e, _ := NewExtended("e", r, []string{"lon", "lat"}, []NamedDisplay{
		{Name: "display", Fn: draw.ConstFunc(draw.List{draw.Circle{R: 1}})},
		{Name: "alt", Fn: draw.ConstFunc(draw.List{draw.Rect{W: 2, H: 2}})},
	})
	l, err := e.DisplayNamed("alt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l[0].(draw.Rect); !ok {
		t.Error("named display wrong")
	}
	if _, err := e.DisplayNamed("ghost", 0); err == nil {
		t.Error("missing named display accepted")
	}
}

func TestLayoutString(t *testing.T) {
	if Horizontal.String() != "horizontal" || Vertical.String() != "vertical" || Tabular.String() != "tabular" {
		t.Error("layout names")
	}
}
