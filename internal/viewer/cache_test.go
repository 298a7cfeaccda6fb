package viewer

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/db"
	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/expr"
	"repro/internal/raster"
	"repro/internal/types"
)

// disableCaches turns off every cross-frame cache, for baselines.
func disableCaches(v *Viewer) *Viewer {
	v.DisableSpatialIndex = true
	v.DisableDisplayMemo = true
	v.DisableWormholeCache = true
	return v
}

// pngBytes encodes a framebuffer, failing the test on encode errors.
func pngBytes(t *testing.T, img *raster.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := img.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCacheCoherenceMidPan is the acceptance test for the invalidation
// spine: warm every cache with a couple of frames, mutate the relation
// mid-pan, and require the very next frame to match a cache-free render
// byte for byte.
func TestCacheCoherenceMidPan(t *testing.T) {
	e := gridExt(t, 50, false)
	v := New("cached", DirectSource{D: e}, 100, 100)
	v.SpatialThreshold = 1 // force the grid path even on a small relation

	setView := func(vv *Viewer, x, y, elev float64) {
		t.Helper()
		if err := vv.PanTo(0, x, y); err != nil {
			t.Fatal(err)
		}
		if err := vv.SetElevation(0, elev); err != nil {
			t.Fatal(err)
		}
	}

	// Warm frames: initial view, then a pan step.
	setView(v, 10, 10, 8)
	if _, _, err := v.Render(); err != nil {
		t.Fatal(err)
	}
	setView(v, 14, 14, 8)
	if _, _, err := v.Render(); err != nil {
		t.Fatal(err)
	}
	if s := v.CacheStats(); s.MemoHits == 0 || s.SpatialQueries == 0 {
		t.Fatalf("caches never engaged: %+v", s)
	}

	// Mid-pan mutation: drag a far-away point into the visible window.
	if err := e.Rel.Update(0, "px", types.NewFloat(14)); err != nil {
		t.Fatal(err)
	}
	if err := e.Rel.Update(0, "py", types.NewFloat(14)); err != nil {
		t.Fatal(err)
	}

	img, _, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	ref := disableCaches(New("ref", DirectSource{D: e}, 100, 100))
	setView(ref, 14, 14, 8)
	refImg, _, err := ref.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pngBytes(t, img), pngBytes(t, refImg)) {
		t.Fatal("frame after mid-pan mutation differs from a cache-free render")
	}
	if s := v.CacheStats(); s.SpatialBuilds < 2 {
		t.Fatalf("mutation did not force a grid rebuild: %+v", s)
	}
}

// TestRenderDeterminismCachesOnOff drives the same pan/zoom sequence
// through a fully cached viewer and a cache-free one and requires
// byte-identical PNG output at every step.
func TestRenderDeterminismCachesOnOff(t *testing.T) {
	on := New("on", DirectSource{D: gridExt(t, 200, false)}, 120, 90)
	on.SpatialThreshold = 1
	on.Parallel = true
	off := disableCaches(New("off", DirectSource{D: gridExt(t, 200, false)}, 120, 90))

	steps := []struct{ x, y, elev float64 }{
		{20, 20, 30}, {40, 40, 30}, {40, 40, 12}, {60, 55, 12},
		{60, 55, 80}, {100, 100, 80}, {20, 20, 30}, // revisit: pure cache hits
	}
	for i, s := range steps {
		for _, v := range []*Viewer{on, off} {
			if err := v.PanTo(0, s.x, s.y); err != nil {
				t.Fatal(err)
			}
			if err := v.SetElevation(0, s.elev); err != nil {
				t.Fatal(err)
			}
		}
		a, _, err := on.Render()
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := off.Render()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pngBytes(t, a), pngBytes(t, b)) {
			t.Fatalf("step %d (%+v): cached render differs from cache-free render", i, s)
		}
	}
	if s := on.CacheStats(); s.MemoHits == 0 {
		t.Fatalf("sequence never hit the memo: %+v", s)
	}
	if s := off.CacheStats(); s.MemoHits != 0 || s.SpatialQueries != 0 || s.WormholeHits != 0 {
		t.Fatalf("disabled caches recorded activity: %+v", s)
	}
}

// countingExt wraps gridExt-style data with a display function that counts
// its evaluations, to prove memoization skips re-evaluation.
func countingExt(t testing.TB, n int, evals *atomic.Int64) *display.Extended {
	t.Helper()
	e := gridExt(t, n, false)
	e.Displays = []display.NamedDisplay{{
		Name: "display",
		Fn: func(env expr.Env) (draw.List, error) {
			evals.Add(1)
			return draw.List{draw.Circle{R: 0.4, Color: draw.Black, Style: draw.FillStyle}}, nil
		},
	}}
	return e
}

func TestDisplayMemoSkipsReevaluation(t *testing.T) {
	var evals atomic.Int64
	e := countingExt(t, 20, &evals)
	v := New("t", DirectSource{D: e}, 100, 100)
	if err := v.PanTo(0, 9.5, 9.5); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 12); err != nil {
		t.Fatal(err)
	}
	_, first, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if first.MemoHits != 0 || first.MemoMisses != first.DisplaysEvaled {
		t.Fatalf("cold frame: %+v", first)
	}
	afterFirst := evals.Load()
	if afterFirst == 0 {
		t.Fatal("display function never ran")
	}
	_, second, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if evals.Load() != afterFirst {
		t.Fatalf("warm frame re-evaluated display functions (%d -> %d)", afterFirst, evals.Load())
	}
	if second.MemoMisses != 0 || second.MemoHits != first.DisplaysEvaled {
		t.Fatalf("warm frame: %+v", second)
	}
	if second.DisplaysEvaled != first.DisplaysEvaled {
		t.Fatalf("memoized frame realized %d lists, cold frame %d", second.DisplaysEvaled, first.DisplaysEvaled)
	}

	// A relation mutation retires every memo entry at once.
	if err := e.Rel.Update(0, "z", types.NewFloat(1)); err != nil {
		t.Fatal(err)
	}
	_, third, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if third.MemoHits != 0 || third.MemoMisses == 0 {
		t.Fatalf("post-mutation frame served stale memo entries: %+v", third)
	}
}

func TestMemoizedErrorsStillReported(t *testing.T) {
	var evals atomic.Int64
	e := gridExt(t, 10, false)
	e.Displays = []display.NamedDisplay{{
		Name: "display",
		Fn: func(env expr.Env) (draw.List, error) {
			evals.Add(1)
			if v, ok := env.AttrValue("id"); ok && v.String() == "3" {
				return nil, fmt.Errorf("broken display for row 3")
			}
			return draw.List{draw.Circle{R: 0.4, Color: draw.Black}}, nil
		},
	}}
	v := New("t", DirectSource{D: e}, 100, 100)
	if err := v.PanTo(0, 4.5, 4.5); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 6); err != nil {
		t.Fatal(err)
	}
	_, first, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if first.DisplayErrors != 1 || len(first.Errors) != 1 {
		t.Fatalf("cold frame errors: %+v", first)
	}
	afterFirst := evals.Load()
	_, second, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	// The failure is memoized — no re-fire — but still reported per frame.
	if evals.Load() != afterFirst {
		t.Fatal("memo re-evaluated a failed display function")
	}
	if second.DisplayErrors != 1 || len(second.Errors) != 1 {
		t.Fatalf("warm frame errors: %+v", second)
	}
}

func TestSpatialIndexMatchesLinearScan(t *testing.T) {
	// 3000 rows exceeds the default threshold, so the index engages with
	// stock settings on one viewer and is disabled on the other.
	indexed := New("idx", DirectSource{D: gridExt(t, 3000, false)}, 100, 100)
	linear := disableCaches(New("lin", DirectSource{D: gridExt(t, 3000, false)}, 100, 100))
	for _, v := range []*Viewer{indexed, linear} {
		if err := v.PanTo(0, 1500, 1500); err != nil {
			t.Fatal(err)
		}
		if err := v.SetElevation(0, 40); err != nil {
			t.Fatal(err)
		}
	}
	a, sa, err := indexed.Render()
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := linear.Render()
	if err != nil {
		t.Fatal(err)
	}
	if sa.DisplaysEvaled != sb.DisplaysEvaled || sa.DrawablesDrawn != sb.DrawablesDrawn {
		t.Fatalf("indexed stats %+v != linear stats %+v", sa, sb)
	}
	// The grid visits only cells near the window, so far fewer tuples are
	// even examined.
	if sa.TuplesSeen >= sb.TuplesSeen {
		t.Fatalf("index examined %d tuples, linear scan %d", sa.TuplesSeen, sb.TuplesSeen)
	}
	if !bytes.Equal(pngBytes(t, a), pngBytes(t, b)) {
		t.Fatal("indexed render differs from linear render")
	}
	if s := indexed.CacheStats(); s.SpatialBuilds != 1 || s.SpatialQueries == 0 {
		t.Fatalf("index cache stats: %+v", s)
	}
}

func TestMemoEvictionBounded(t *testing.T) {
	v := New("t", DirectSource{D: gridExt(t, 30, false)}, 100, 100)
	v.DisplayMemoCap = 8
	if err := v.PanTo(0, 15, 15); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 20); err != nil { // all 30 points visible
		t.Fatal(err)
	}
	if _, _, err := v.Render(); err != nil {
		t.Fatal(err)
	}
	s := v.CacheStats()
	if s.MemoEntries > 8 {
		t.Fatalf("memo holds %d entries, cap 8", s.MemoEntries)
	}
	if s.MemoEvictions == 0 {
		t.Fatalf("no evictions despite overflow: %+v", s)
	}
}

func TestWormholeCachePersistsAcrossFrames(t *testing.T) {
	s := NewSpace()
	src := New("src", DirectSource{D: wormholeExt(t, "dest")}, 100, 100)
	destExt := gridExt(t, 5, false)
	dst := New("dest", DirectSource{D: destExt}, 100, 100)
	if _, err := s.Add("src", src); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add("dest", dst); err != nil {
		t.Fatal(err)
	}
	if err := src.PanTo(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.SetElevation(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Render(); err != nil {
		t.Fatal(err)
	}
	if cs := src.CacheStats(); cs.WormholeRenders != 1 || cs.WormholeHits != 0 {
		t.Fatalf("cold frame: %+v", cs)
	}
	if _, _, err := src.Render(); err != nil {
		t.Fatal(err)
	}
	if cs := src.CacheStats(); cs.WormholeRenders != 1 || cs.WormholeHits != 1 {
		t.Fatalf("interior not reused across frames: %+v", cs)
	}

	// Mutating the destination's relation retires the cached interior.
	if err := destExt.Rel.Update(0, "px", types.NewFloat(2.2)); err != nil {
		t.Fatal(err)
	}
	img, _, err := src.Render()
	if err != nil {
		t.Fatal(err)
	}
	cs := src.CacheStats()
	if cs.WormholeStale != 1 || cs.WormholeRenders != 2 {
		t.Fatalf("stale interior not retired: %+v", cs)
	}
	// And the re-rendered frame matches a cache-free render.
	ref := disableCaches(New("ref", DirectSource{D: wormholeExt(t, "dest")}, 100, 100))
	refDst := disableCaches(New("refdest", DirectSource{D: destExt}, 100, 100))
	rs := NewSpace()
	if _, err := rs.Add("src", ref); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Add("dest", refDst); err != nil {
		t.Fatal(err)
	}
	if err := ref.PanTo(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetElevation(0, 3); err != nil {
		t.Fatal(err)
	}
	refImg, _, err := ref.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pngBytes(t, img), pngBytes(t, refImg)) {
		t.Fatal("post-mutation wormhole frame differs from cache-free render")
	}
}

// TestWormholeCacheRespectsDestOverrides: viewer-local elevation-map
// overrides on the destination are part of the interior's signature.
func TestWormholeCacheRespectsDestOverrides(t *testing.T) {
	s, src, dst := newSpacePair(t)
	_ = s
	if err := src.PanTo(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.SetElevation(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Render(); err != nil {
		t.Fatal(err)
	}
	// Range the destination's only layer out of view: the cached interior
	// must not survive.
	dst.SetLayerRange(0, 0, 1000, 2000)
	if _, _, err := src.Render(); err != nil {
		t.Fatal(err)
	}
	if cs := src.CacheStats(); cs.WormholeStale != 1 || cs.WormholeRenders != 2 {
		t.Fatalf("destination override did not retire the interior: %+v", cs)
	}
}

func TestInvalidateCachesDropsEverything(t *testing.T) {
	v := New("t", DirectSource{D: gridExt(t, 20, false)}, 100, 100)
	v.SpatialThreshold = 1
	if err := v.PanTo(0, 9.5, 9.5); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElevation(0, 12); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Render(); err != nil {
		t.Fatal(err)
	}
	if s := v.CacheStats(); s.MemoEntries == 0 {
		t.Fatalf("memo never filled: %+v", s)
	}
	v.InvalidateCaches()
	if s := v.CacheStats(); s.MemoEntries != 0 || s.WormholeEntries != 0 {
		t.Fatalf("InvalidateCaches left entries: %+v", s)
	}
	_, st, err := v.Render()
	if err != nil {
		t.Fatal(err)
	}
	if st.MemoHits != 0 {
		t.Fatalf("post-invalidate frame hit the memo: %+v", st)
	}
}

func TestCacheStatsString(t *testing.T) {
	var s CacheStats
	if got := s.String(); got == "" {
		t.Fatal("empty stats string")
	}
	s.MemoHits, s.MemoMisses = 3, 1
	if got := s.String(); got == "" {
		t.Fatal("empty stats string")
	}
}

// TestMemoAcrossWriteGenerations renders a canvas after each of a run of
// database writes (UpdateTuple and AppendTuple, each a new generation),
// with and without the display memo. Every frame must match byte for
// byte, and the memo must hold only the tables of the generations drawn
// in the current and the previous frame.
func TestMemoAcrossWriteGenerations(t *testing.T) {
	database := db.New()
	if err := database.CreateTable(gridRel(t, 3000)); err != nil {
		t.Fatal(err)
	}
	displays := []display.NamedDisplay{{
		Name: "display",
		Fn: func(env expr.Env) (draw.List, error) {
			z, _ := env.AttrValue("z")
			return draw.List{
				draw.Circle{R: 0.4, Color: draw.Black, Style: draw.FillStyle},
				draw.Text{S: z.String(), Size: 0.5, Color: draw.Blue},
			}, nil
		},
	}}
	ext := func() *display.Extended {
		r, err := database.Table("Grid")
		if err != nil {
			t.Fatal(err)
		}
		e, err := display.NewExtended("grid", r, []string{"px", "py"}, displays)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	on := New("on", DirectSource{D: ext()}, 120, 120)
	off := New("off", DirectSource{D: ext()}, 120, 120)
	off.DisableDisplayMemo = true
	for _, v := range []*Viewer{on, off} {
		if err := v.SetElevation(0, 8); err != nil {
			t.Fatal(err)
		}
	}

	var prevGen display.Gen
	frame := func(e *display.Extended, x float64) {
		t.Helper()
		var imgs [2][]byte
		for i, v := range []*Viewer{on, off} {
			v.Source = DirectSource{D: e}
			if err := v.PanTo(0, x, x); err != nil {
				t.Fatal(err)
			}
			img, _, err := v.Render()
			if err != nil {
				t.Fatal(err)
			}
			imgs[i] = pngBytes(t, img)
		}
		if !bytes.Equal(imgs[0], imgs[1]) {
			t.Fatalf("memo-on frame at %v differs from memo-off frame", x)
		}
		want := 1
		if gen := e.Generation(); prevGen != (display.Gen{}) && gen != prevGen {
			want = 2
		}
		prevGen = e.Generation()
		if s := on.CacheStats(); s.MemoTables != want {
			t.Fatalf("memo holds %d tables, want %d (the last two frames' generations)", s.MemoTables, want)
		}
	}

	frame(ext(), 1500)
	const generations = 12
	for g := 0; g < generations; g++ {
		var err error
		if g%3 == 2 {
			err = database.AppendTuple("Grid", []types.Value{
				types.NewInt(int64(3000 + g)), types.NewFloat(1500.5 + float64(g)), types.NewFloat(1500.5),
				types.NewFloat(-1), types.NewText("new"),
			})
		} else {
			err = database.UpdateTuple("Grid", 1498+g, "z", types.NewFloat(float64(-g)))
		}
		if err != nil {
			t.Fatal(err)
		}
		// A frame at the new generation, then a pan within it that hits
		// the rows the first frame memoized.
		e := ext()
		frame(e, 1500)
		frame(e, 1502)
	}
	s := on.CacheStats()
	if s.MemoHits == 0 || s.MemoEvictions == 0 {
		t.Fatalf("memo never hit or never retired a generation: %+v", s)
	}
}
