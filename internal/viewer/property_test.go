package viewer

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/expr"
	"repro/internal/geom"
	"repro/internal/rel"
	"repro/internal/types"
)

// randomExt builds a relation of n random points with random circle sizes
// and a z dimension.
func randomExt(t testing.TB, n int, seed int64) *display.Extended {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := rel.New("R", rel.MustSchema(
		rel.Column{Name: "px", Kind: types.Float},
		rel.Column{Name: "py", Kind: types.Float},
		rel.Column{Name: "z", Kind: types.Float},
		rel.Column{Name: "size", Kind: types.Float},
	))
	for i := 0; i < n; i++ {
		r.MustAppend([]types.Value{
			types.NewFloat(rng.Float64()*200 - 100),
			types.NewFloat(rng.Float64()*200 - 100),
			types.NewFloat(rng.Float64() * 10),
			types.NewFloat(rng.Float64()*3 + 0.5),
		})
	}
	fn, err := draw.ParseSpec("circle rexpr='size' color=blue fill")
	if err != nil {
		t.Fatal(err)
	}
	e, err := display.NewExtended("rand", r, []string{"px", "py", "z"}, []display.NamedDisplay{{Name: "display", Fn: fn}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCullingSoundness: culling is an optimization, never a semantic
// change — rendering with aggressive culling must produce exactly the
// same pixels as rendering with culling effectively disabled.
func TestCullingSoundness(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		e := randomExt(t, 300, seed)
		rng := rand.New(rand.NewSource(seed + 100))

		mk := func(margin float64) *Viewer {
			v := New("v", DirectSource{D: e}, 200, 160)
			v.CullMargin = margin
			return v
		}
		culled := mk(5) // max circle size is 3.5: margin 5 is safe
		naive := mk(1e9)

		cx := rng.Float64()*200 - 100
		cy := rng.Float64()*200 - 100
		elev := rng.Float64()*80 + 5
		for _, v := range []*Viewer{culled, naive} {
			if err := v.PanTo(0, cx, cy); err != nil {
				t.Fatal(err)
			}
			if err := v.SetElevation(0, elev); err != nil {
				t.Fatal(err)
			}
			if err := v.SetSlider(0, 0, 2, 8); err != nil {
				t.Fatal(err)
			}
		}
		imgC, statsC, err := culled.Render()
		if err != nil {
			t.Fatal(err)
		}
		imgN, statsN, err := naive.Render()
		if err != nil {
			t.Fatal(err)
		}
		if statsC.DisplaysEvaled > statsN.DisplaysEvaled {
			t.Fatalf("seed %d: culled evaluated more (%d > %d)", seed, statsC.DisplaysEvaled, statsN.DisplaysEvaled)
		}
		for i := range imgC.Pix {
			if imgC.Pix[i] != imgN.Pix[i] {
				t.Fatalf("seed %d: pixel %d differs under culling (center %.1f,%.1f elev %.1f)",
					seed, i, cx, cy, elev)
			}
		}
	}
}

// TestHitsMatchPixels: every hit rectangle from a render overlaps at
// least one drawn pixel region, and clicking the center of a filled
// circle's hit resolves to that tuple.
func TestHitsResolveToTuples(t *testing.T) {
	e := randomExt(t, 60, 9)
	v := New("v", DirectSource{D: e}, 300, 300)
	if err := v.PanTo(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 110); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Render(); err != nil {
		t.Fatal(err)
	}
	hits := v.Hits()
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range hits {
		cx := (h.Screen.Min.X + h.Screen.Max.X) / 2
		cy := (h.Screen.Min.Y + h.Screen.Max.Y) / 2
		got, ok := v.HitAt(cx, cy)
		if !ok {
			t.Fatalf("no hit at the center of hit row %d", h.Row)
		}
		// The resolved hit must contain the point (it may be a different,
		// overlapping tuple drawn on top).
		if !got.Screen.ContainsClosed(geom.Pt(cx, cy)) {
			t.Fatalf("resolved hit does not contain the click")
		}
	}
}

// TestSliderSoundness: a slider of [lo,hi] renders exactly the tuples a
// Restrict on the same interval would keep.
func TestSliderMatchesRestrict(t *testing.T) {
	e := randomExt(t, 200, 4)
	v := New("v", DirectSource{D: e}, 200, 200)
	if err := v.PanTo(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 120); err != nil { // everything in view
		t.Fatal(err)
	}
	if err := v.SetSlider(0, 0, 2.5, 7.5); err != nil {
		t.Fatal(err)
	}
	_, stats, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := rel.Restrict(e.Rel, expr.MustParse("z >= 2.5 and z <= 7.5"), rel.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DisplaysEvaled != restricted.Len() {
		t.Fatalf("slider rendered %d tuples, restrict keeps %d", stats.DisplaysEvaled, restricted.Len())
	}
}

// TestRenderDeterminism: same state renders byte-identical frames.
func TestRenderDeterminism(t *testing.T) {
	e := randomExt(t, 150, 11)
	v := New("v", DirectSource{D: e}, 160, 120)
	if err := v.SetElevation(0, 90); err != nil {
		t.Fatal(err)
	}
	a, _, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("nondeterministic render")
		}
	}
}

// TestDisplayErrorIsolation: a failing display function skips its tuple
// and counts the error, without poisoning the frame.
func TestDisplayErrorIsolation(t *testing.T) {
	r := rel.New("R", rel.MustSchema(
		rel.Column{Name: "px", Kind: types.Float},
		rel.Column{Name: "py", Kind: types.Float},
		rel.Column{Name: "d", Kind: types.Float},
	))
	for i := 0; i < 10; i++ {
		r.MustAppend([]types.Value{
			types.NewFloat(float64(i)), types.NewFloat(0), types.NewFloat(float64(i - 5)),
		})
	}
	// Division by the d attribute fails on the row where d = 0.
	fn, err := draw.ParseSpec("circle r=1 dyexpr='10 / d'")
	if err != nil {
		t.Fatal(err)
	}
	e, err := display.NewExtended("r", r, []string{"px", "py"}, []display.NamedDisplay{{Name: "display", Fn: fn}})
	if err != nil {
		t.Fatal(err)
	}
	v := New("v", DirectSource{D: e}, 100, 100)
	if err := v.PanTo(0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 20); err != nil {
		t.Fatal(err)
	}
	_, stats, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DisplayErrors != 1 {
		t.Fatalf("DisplayErrors = %d, want 1", stats.DisplayErrors)
	}
	if stats.DisplaysEvaled != 9 {
		t.Fatalf("DisplaysEvaled = %d, want 9", stats.DisplaysEvaled)
	}
}

// benchmark-style sanity check that hit counts equal drawn drawables
// (each drawable produces exactly one hit record at depth 0).
func TestHitCountMatchesDrawables(t *testing.T) {
	for _, n := range []int{10, 50} {
		e := randomExt(t, n, int64(n))
		v := New("v", DirectSource{D: e}, 200, 200)
		if err := v.SetElevation(0, 150); err != nil {
			t.Fatal(err)
		}
		_, stats, err := v.Render()
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Hits()) != stats.DrawablesDrawn {
			t.Fatalf("%d hits vs %d drawables", len(v.Hits()), stats.DrawablesDrawn)
		}
	}
}

// TestParallelRenderSoundness: parallel display evaluation must produce
// byte-identical frames and identical stats.
func TestParallelRenderSoundness(t *testing.T) {
	e := randomExt(t, 2000, 21)
	mk := func(parallel bool) (*Viewer, error) {
		v := New("v", DirectSource{D: e}, 240, 180)
		v.Parallel = parallel
		if err := v.PanTo(0, 0, 0); err != nil {
			return nil, err
		}
		if err := v.SetElevation(0, 120); err != nil {
			return nil, err
		}
		return v, nil
	}
	serial, err := mk(false)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := mk(true)
	if err != nil {
		t.Fatal(err)
	}
	imgS, statsS, err := serial.Render()
	if err != nil {
		t.Fatal(err)
	}
	imgP, statsP, err := parallel.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(statsS, statsP) {
		t.Fatalf("stats differ: %+v vs %+v", statsS, statsP)
	}
	for i := range imgS.Pix {
		if imgS.Pix[i] != imgP.Pix[i] {
			t.Fatalf("pixel %d differs under parallel evaluation", i)
		}
	}
	// Hits identical too (same order).
	hs, hp := serial.Hits(), parallel.Hits()
	if len(hs) != len(hp) {
		t.Fatalf("hit counts differ: %d vs %d", len(hs), len(hp))
	}
	for i := range hs {
		if hs[i].Row != hp[i].Row || hs[i].Screen != hp[i].Screen {
			t.Fatalf("hit %d differs", i)
		}
	}
}
