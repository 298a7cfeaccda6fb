package viewer

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/raster"
)

// RenderStats counts work done during one render, for the culling
// benchmarks: the paper's pipeline filters tuples to slider ranges and
// visible real estate before computing display attributes (Sections 2 and
// 5.1). It is the per-frame view of the process-wide internal/obs
// counters (render.tuples_seen, render.tuples_culled, ...): each frame's
// totals are published into the obs registry when obs is enabled.
type RenderStats struct {
	TuplesSeen      int // tuples examined (grid-query candidates when the spatial index is active)
	TuplesCulled    int // rejected before display evaluation
	DisplaysEvaled  int // display lists realized (memoized or evaluated)
	DrawablesDrawn  int
	DrawablesCulled int // drawables whose bounds missed the viewport
	DisplayErrors   int // display functions that failed (tuple skipped)
	MemoHits        int // display lists served from the cross-frame memo
	MemoMisses      int // display functions actually evaluated this frame

	// Errors holds the first few distinct display-function error
	// messages of the frame. Display failures skip the tuple rather than
	// abort the frame (a broken display function should not black out the
	// canvas), but they must not be silently swallowed either.
	Errors []string
}

// maxStatsErrors bounds the distinct error messages kept per frame.
const maxStatsErrors = 5

// noteError records one display-function failure: counted always, message
// sampled up to maxStatsErrors distinct entries, and mirrored into the
// obs error log.
func (st *RenderStats) noteError(err error) {
	st.DisplayErrors++
	obs.RecordError(obs.RenderDisplayErrors, err)
	msg := err.Error()
	for _, e := range st.Errors {
		if e == msg {
			return
		}
	}
	if len(st.Errors) < maxStatsErrors {
		st.Errors = append(st.Errors, msg)
	}
}

// publish mirrors the frame's totals into the process-wide obs counters.
// DisplayErrors is intentionally absent: noteError records those at the
// moment of failure.
func (st *RenderStats) publish() {
	if !obs.Enabled() {
		return
	}
	obs.Inc(obs.RenderFrames)
	obs.Add(obs.RenderTuplesSeen, int64(st.TuplesSeen))
	obs.Add(obs.RenderTuplesCulled, int64(st.TuplesCulled))
	obs.Add(obs.RenderDisplaysEvaled, int64(st.DisplaysEvaled))
	obs.Add(obs.RenderDrawablesDrawn, int64(st.DrawablesDrawn))
	obs.Add(obs.RenderDrawablesCulled, int64(st.DrawablesCulled))
	obs.Add(obs.RenderMemoHits, int64(st.MemoHits))
	obs.Add(obs.RenderMemoMisses, int64(st.MemoMisses))
}

// Render draws the viewer's displayable into a fresh framebuffer and
// returns it with render statistics.
func (v *Viewer) Render() (*raster.Image, RenderStats, error) {
	return v.RenderCtx(context.Background())
}

// RenderCtx is Render under a request context (see RenderIntoCtx).
func (v *Viewer) RenderCtx(ctx context.Context) (*raster.Image, RenderStats, error) {
	img := raster.NewImage(v.W, v.H)
	stats, err := v.RenderIntoCtx(ctx, img)
	return img, stats, err
}

// RenderInto draws into an existing framebuffer of the viewer's size.
func (v *Viewer) RenderInto(img *raster.Image) (RenderStats, error) {
	return v.RenderIntoCtx(context.Background(), img)
}

// RenderIntoCtx draws into an existing framebuffer under a request
// context. The frame mints (or inherits) a TraceContext, so every span
// the frame causes — render passes, display evaluations, the demands a
// BoxSource issues, the invalidations those demands trigger — records
// parent links back to this frame's render.frame span. The slow-frame
// watchdog runs here when FrameBudget is set.
func (v *Viewer) RenderIntoCtx(ctx context.Context, img *raster.Image) (RenderStats, error) {
	var tc *obs.TraceContext
	if obs.Recording() {
		ctx, tc = obs.EnsureTrace(ctx, "render:"+v.Name)
	}
	start := time.Now()
	stats, err := v.renderFrame(ctx, img)
	if v.FrameBudget > 0 {
		if elapsed := time.Since(start); elapsed > v.FrameBudget {
			v.noteSlowFrame(tc, elapsed)
		}
	}
	return stats, err
}

// renderFrame is one frame: clear, cull, evaluate, paint, magnifiers.
func (v *Viewer) renderFrame(ctx context.Context, img *raster.Image) (RenderStats, error) {
	var stats RenderStats
	defer stats.publish()
	var frameSpan *obs.Span
	if obs.Recording() {
		ctx, frameSpan = obs.StartSpanCtx(ctx, obs.SpanRenderFrame, "viewer", v.Name)
	}
	defer frameSpan.End()
	frameTimer := obs.StartTimer(obs.RenderFrameNS)
	defer frameTimer.Stop()
	img.Clear(v.Background)
	if v.Iconified {
		return stats, nil
	}
	d, err := getDisplayable(ctx, v.Source)
	if err != nil {
		return stats, err
	}
	g := display.Promote(d)
	v.ensureStates(g)
	v.hits = v.hits[:0]
	// frame drives LRU recency in the grid and wormhole caches and the
	// display memo's retention: a generation table not drawn in the
	// previous frame can never be hit again, so it goes now. The caches
	// otherwise survive between frames: generation stamps, not frame
	// boundaries, decide staleness (DESIGN.md, "Render caching &
	// invalidation").
	v.frame++
	if v.memo != nil {
		v.noteMemoEvictions(v.memo.retire(v.frame))
	}

	pen := raster.NewPen(img)
	rects := memberRects(g, geom.R(0, 0, float64(v.W), float64(v.H)))
	for m, c := range g.Members {
		rect := rects[m]
		// Leave a 1-pixel separation between stitched members.
		inner := rect.Expand(-1)
		if inner.Empty() {
			continue
		}
		if len(g.Members) > 1 {
			pen.Rect(rect, draw.Gray, draw.Style{LineWidth: 1})
		}
		if err := v.renderMember(ctx, pen.WithClip(inner), inner, c, v.states[m], m, 0, true, &stats); err != nil {
			return stats, err
		}
	}

	// Magnifying glasses draw over the base canvas (Section 7.2).
	for _, mag := range v.magnifiers {
		if err := v.renderMagnifier(ctx, pen, mag, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// memberRects computes each group member's screen rectangle under the
// group's layout (Section 7.3: side-by-side, vertical, or tabular).
func memberRects(g *display.Group, bounds geom.Rect) []geom.Rect {
	n := len(g.Members)
	out := make([]geom.Rect, n)
	switch g.Layout {
	case display.Vertical:
		h := bounds.H() / float64(n)
		for i := range out {
			out[i] = geom.R(bounds.Min.X, bounds.Min.Y+float64(i)*h, bounds.Max.X, bounds.Min.Y+float64(i+1)*h)
		}
	case display.Tabular:
		cols := g.Cols
		if cols <= 0 {
			cols = 1
		}
		rows := (n + cols - 1) / cols
		cw := bounds.W() / float64(cols)
		ch := bounds.H() / float64(rows)
		for i := range out {
			r, c := i/cols, i%cols
			out[i] = geom.R(
				bounds.Min.X+float64(c)*cw, bounds.Min.Y+float64(r)*ch,
				bounds.Min.X+float64(c+1)*cw, bounds.Min.Y+float64(r+1)*ch)
		}
	default: // Horizontal
		w := bounds.W() / float64(n)
		for i := range out {
			out[i] = geom.R(bounds.Min.X+float64(i)*w, bounds.Min.Y, bounds.Min.X+float64(i+1)*w, bounds.Max.Y)
		}
	}
	return out
}

// canvasTransform maps canvas coordinates to screen pixels for a member
// viewport rect and view state.
func canvasTransform(rect geom.Rect, st ViewState) (scale float64, toScreen func(geom.Point) geom.Point) {
	h := math.Abs(st.Elevation)
	if h == 0 {
		h = 1e-6
	}
	scale = (rect.H() / 2) / h
	center := rect.Center()
	toScreen = func(p geom.Point) geom.Point {
		return geom.Pt(
			center.X+(p.X-st.Center.X)*scale,
			center.Y-(p.Y-st.Center.Y)*scale,
		)
	}
	return scale, toScreen
}

// renderMember draws one composite into rect under the given state.
// recordHits is true only for the top-level render into the viewer's own
// framebuffer, where screen coordinates are meaningful for clicks.
func (v *Viewer) renderMember(ctx context.Context, pen *raster.Pen, rect geom.Rect, c *display.Composite, st ViewState, member, depth int, recordHits bool, stats *RenderStats) error {
	aspect := rect.W() / rect.H()
	visible := st.Visible(aspect)
	scale, toScreen := canvasTransform(rect, st)

	// Scratch buffers are pooled on the viewer: capacities learned on one
	// frame carry to the next, so steady-state pans grow nothing in pass 1.
	sc := v.acquireScratch()
	defer v.releaseScratch(sc)

	order := v.layerOrder(member, len(c.Layers))
	for _, li := range order {
		layer := c.Layers[li]
		ext := layer.Ext

		// Elevation-range culling (Set Range, Section 6.1): outside its
		// range a relation contributes nothing. The same test makes
		// underside displays (negative ranges) appear only in rear view
		// mirrors, which render with negative elevations.
		if !v.effectiveRange(member, li, ext.ElevRange).Contains(st.Elevation) {
			continue
		}

		margin := v.CullMargin
		if ex := ext.ApproxExtent(); ex > margin {
			margin = ex
		}
		cullWindow := visible.Expand(margin)

		ldim := ext.Dim()
		var off []float64
		if layer.Offset != nil {
			off = layer.Offset
		}
		offAt := func(d int) float64 {
			if d < len(off) {
				return off[d]
			}
			return 0
		}

		gen := ext.Generation()

		// Pass 1: cull to the visible tuples. Above the spatial threshold
		// the candidate set comes from the generation-keyed grid index —
		// only the cells overlapping the cull window are visited — and the
		// exact tests below re-apply per candidate, so the accepted rows
		// (in ascending order either way) match the linear scan exactly.
		// Slider-dimension filtering stays per-row: sliders move without
		// the relation changing, so indexing them would thrash.
		cctx := ctx
		var cullSpan *obs.Span
		if obs.Recording() {
			cctx, cullSpan = obs.StartSpanCtx(ctx, obs.SpanRenderCull,
				"member", strconv.Itoa(member), "layer", strconv.Itoa(li), "depth", strconv.Itoa(depth))
		}
		n := ext.Rel.Len()
		rows, locs := sc.rows[:0], sc.locs[:0]
		sw := ext.NewSweep()
		accept := func(row int) {
			stats.TuplesSeen++
			loc := sw.Location(row)
			x := loc[0] + offAt(0)
			y := loc[1] + offAt(1)

			// Slider culling for the layer's own extra dimensions; a
			// lower-dimensional layer is invariant in the composite's
			// extra dimensions (Figure 7's flat Louisiana map).
			culled := false
			for d := 2; d < ldim; d++ {
				si := d - 2
				if si < len(st.Sliders) && !st.Sliders[si].Contains(loc[d]+offAt(d)) {
					culled = true
					break
				}
			}
			if culled || !cullWindow.Contains(geom.Pt(x, y)) {
				stats.TuplesCulled++
				return
			}
			rows = append(rows, row)
			locs = append(locs, geom.Pt(x, y))
		}
		if !v.DisableSpatialIndex && n >= v.spatialThreshold() {
			idx := v.spatialIndex(cctx, ext, gen)
			// The grid indexes raw locations; the layer offset moves the
			// query window instead, so layers sharing a relation share a
			// grid.
			sc.cand = idx.Query(cullWindow.Translate(geom.Pt(-offAt(0), -offAt(1))), sc.cand[:0])
			v.cacheStats.SpatialQueries++
			obs.Inc(obs.RenderSpatialQueries)
			for _, row := range sc.cand {
				accept(int(row))
			}
		} else {
			for row := 0; row < n; row++ {
				accept(row)
			}
		}
		sc.rows, sc.locs = rows, locs
		cullSpan.End()

		// Pass 2: realize display lists. Display functions are pure reads
		// over the relation, so (generation, row) fully determines the
		// result: previously seen rows come out of the cross-frame memo
		// and only the misses evaluate — concurrently when the viewer opts
		// in and the miss batch is large. Painting stays serial in tuple
		// order, so output is identical either way.
		ectx := ctx
		var evalSpan *obs.Span
		if obs.Recording() {
			ectx, evalSpan = obs.StartSpanCtx(ctx, obs.SpanRenderDisplayEval,
				"member", strconv.Itoa(member), "layer", strconv.Itoa(li), "rows", strconv.Itoa(len(rows)))
		}
		evalTimer := obs.StartTimer(obs.RenderDisplayEvalNS)
		lists := make([]draw.List, len(rows))
		errs := make([]error, len(rows))
		miss := sc.parts[:0]
		var tab *memoTable
		if v.DisableDisplayMemo {
			for i := range rows {
				miss = append(miss, i)
			}
		} else {
			if v.memo == nil {
				v.memo = newDisplayMemo(v.memoCap())
			}
			tab = v.memo.table(gen, n, v.frame)
			for i, row := range rows {
				if s := tab.slot(row); s != nil && s.filled() {
					lists[i], errs[i] = s.list, s.err
					stats.MemoHits++
					v.cacheStats.MemoHits++
				} else {
					miss = append(miss, i)
				}
			}
		}
		v.evalDisplays(ectx, ext, rows, miss, lists, errs)
		if tab != nil {
			stats.MemoMisses += len(miss)
			v.cacheStats.MemoMisses += int64(len(miss))
			evicted := 0
			for _, i := range miss {
				evicted += v.memo.put(tab, rows[i], lists[i], errs[i])
			}
			v.noteMemoEvictions(evicted)
		}
		sc.parts = miss
		evalTimer.Stop()
		evalSpan.End()

		// Pass 3: paint in drawing order.
		pctx := ctx
		var paintSpan *obs.Span
		if obs.Recording() {
			pctx, paintSpan = obs.StartSpanCtx(ctx, obs.SpanRenderPaint,
				"member", strconv.Itoa(member), "layer", strconv.Itoa(li))
		}
		for vi, row := range rows {
			list := lists[vi]
			if list == nil {
				stats.noteError(fmt.Errorf("row %d of %s: %w", rows[vi], ext.Label, errs[vi]))
				continue
			}
			stats.DisplaysEvaled++
			x, y := locs[vi].X, locs[vi].Y

			for _, dr := range list {
				b := dr.Bounds().Translate(geom.Pt(x, y))
				if !b.Overlaps(visible) {
					stats.DrawablesCulled++
					continue
				}
				v.renderDrawable(pctx, pen, dr, geom.Pt(x, y), scale, toScreen, depth, stats)
				stats.DrawablesDrawn++
				if recordHits {
					sb := screenBounds(b, toScreen)
					hit := Hit{Screen: sb, Member: member, Layer: li, Row: row, Ext: ext}
					if wh, ok := dr.(draw.Viewer); ok {
						w := wh
						hit.Wormhole = &w
					}
					v.hits = append(v.hits, hit)
				}
			}
		}
		paintSpan.End()
	}
	return nil
}

// screenBounds maps a canvas rect through the (y-flipping) transform.
func screenBounds(b geom.Rect, toScreen func(geom.Point) geom.Point) geom.Rect {
	p0 := toScreen(b.Min)
	p1 := toScreen(b.Max)
	return geom.R(p0.X, p0.Y, p1.X, p1.Y)
}

// renderDrawable rasterizes one drawable at canvas position at.
func (v *Viewer) renderDrawable(ctx context.Context, pen *raster.Pen, dr draw.Drawable, at geom.Point, scale float64, toScreen func(geom.Point) geom.Point, depth int, stats *RenderStats) {
	// Stroke widths are screen-space (pixels): shapes grow and shrink
	// with elevation but outlines stay crisp, as on the paper's canvases.
	lineWidth := func(s draw.Style) float64 {
		if s.LineWidth < 1 {
			return 1
		}
		return s.LineWidth
	}
	switch d := dr.(type) {
	case draw.Point:
		pen.Point(toScreen(at.Add(d.Offset)), d.Color)

	case draw.Line:
		a := toScreen(at.Add(d.Offset))
		b := toScreen(at.Add(d.Offset).Add(d.Delta))
		pen.Line(a, b, d.Color, lineWidth(d.Style))

	case draw.Rect:
		r := screenBounds(geom.R(0, 0, d.W, d.H).Translate(at.Add(d.Offset)), toScreen)
		pen.Rect(r, d.Color, draw.Style{Fill: d.Style.Fill, LineWidth: lineWidth(d.Style)})

	case draw.Circle:
		pen.Circle(toScreen(at.Add(d.Offset)), d.R*scale, d.Color, draw.Style{Fill: d.Style.Fill, LineWidth: lineWidth(d.Style)})

	case draw.Polygon:
		pts := make([]geom.Point, len(d.Vertices))
		for i, p := range d.Vertices {
			pts[i] = toScreen(at.Add(d.Offset).Add(p))
		}
		pen.Polygon(pts, d.Color, draw.Style{Fill: d.Style.Fill, LineWidth: lineWidth(d.Style)})

	case draw.Text:
		size := d.Size
		if size <= 0 {
			size = 1
		}
		// Text anchors at its top-left in offset space; Bounds() spans
		// upward from the offset, so the screen anchor is the top-left of
		// the flipped bounds.
		b := d.Bounds().Translate(at)
		top := toScreen(geom.Pt(b.Min.X, b.Max.Y))
		px := size * scale
		pen.Text(top, d.S, px, d.Color)

	case draw.Viewer:
		v.renderWormhole(ctx, pen, d, at, toScreen, depth, stats)
	}
}

// wormholeKey identifies a wormhole interior: two wormholes with the same
// destination, position, elevation, and window size render identical
// interiors (given the same destination contents, which the entry's
// generation signature checks).
type wormholeKey struct {
	dest   string
	loc    geom.Point
	elev   float64
	pw, ph int
}

// renderWormhole draws a wormhole: a bordered window whose interior is
// the destination canvas seen from the wormhole's destination elevation
// (Section 6.2). Interiors are cached across frames keyed by destination
// and viewpoint, with each entry pinned to the destination's generation
// signature: a canvas full of identical wormholes (the Figure 8 station
// map) renders the destination interior once *total* under pan/zoom, not
// once per frame, and a mutation under the destination retires exactly
// the interiors that saw it.
func (v *Viewer) renderWormhole(ctx context.Context, pen *raster.Pen, wh draw.Viewer, at geom.Point, toScreen func(geom.Point) geom.Point, depth int, stats *RenderStats) {
	r := screenBounds(geom.R(0, 0, wh.W, wh.H).Translate(at.Add(wh.Offset)), toScreen)
	border := wh.Border
	if border == (draw.Color{}) {
		border = draw.Blue
	}
	pen.Rect(r, border, draw.Style{LineWidth: 2})

	if depth >= v.MaxWormholeDepth || v.space == nil {
		return
	}
	dest, err := v.space.Canvas(wh.DestCanvas)
	if err != nil {
		return // unresolvable destination: border only
	}
	inner := r.Expand(-2)
	if inner.Empty() {
		return
	}
	pw, ph := int(inner.W()), int(inner.H())
	if pw <= 0 || ph <= 0 {
		return
	}

	// The destination displayable is demanded before the cache lookup:
	// its generation signature is the coherence check. The demand itself
	// is cheap on the steady path — dataflow memoizes it.
	dd, err := getDisplayable(ctx, dest.Viewer.Source)
	if err != nil {
		return
	}
	dg := display.Promote(dd)
	if len(dg.Members) == 0 {
		return
	}

	// The wormhole span opens before the cache lookup so cached and
	// uncached frames record the same span at the same place; a cache
	// hit annotates it instead of eliding it, and the elided interior
	// work shows up as the absence of child spans.
	wctx := ctx
	var whSpan *obs.Span
	if obs.Recording() {
		wctx, whSpan = obs.StartSpanCtx(ctx, obs.SpanRenderWormhole,
			"dest", wh.DestCanvas, "depth", strconv.Itoa(depth))
	}
	defer whSpan.End()

	key := wormholeKey{dest: wh.DestCanvas, loc: wh.DestLocation, elev: wh.DestElevation, pw: pw, ph: ph}
	var sig string
	if !v.DisableWormholeCache {
		sig = destSignature(dest.Viewer, dg.Members[0])
		if e, ok := v.whCache[key]; ok {
			if e.sig == sig {
				e.lastUsed = v.frame
				v.cacheStats.WormholeHits++
				obs.Inc(obs.RenderWormholeCached)
				whSpan.Annotate("cached", "true")
				pen.Blit(e.img, int(inner.Min.X), int(inner.Min.Y))
				return
			}
			delete(v.whCache, key)
			v.cacheStats.WormholeStale++
			obs.Inc(obs.RenderWormholeStale)
		}
	}

	st := ViewState{
		Center:    wh.DestLocation,
		Elevation: wh.DestElevation,
	}
	dim := dg.Members[0].Dim()
	for d := 2; d < dim; d++ {
		st.Sliders = append(st.Sliders, geom.Rg(math.Inf(-1), math.Inf(1)))
	}
	// Render the destination's first member into an offscreen frame, then
	// paste; clicks inside still resolve to the wormhole itself (you
	// travel, not poke).
	obs.Inc(obs.RenderWormholes)
	off := raster.NewImage(pw, ph)
	offPen := raster.NewPen(off)
	offRect := geom.R(0, 0, float64(pw), float64(ph))
	_ = dest.Viewer.renderMember(wctx, offPen, offRect, dg.Members[0], st, 0, depth+1, false, stats)
	v.cacheStats.WormholeRenders++
	if !v.DisableWormholeCache {
		if v.whCache == nil {
			v.whCache = make(map[wormholeKey]*whEntry)
		}
		v.whCache[key] = &whEntry{img: off, sig: sig, lastUsed: v.frame}
		v.evictWormholes()
	}
	pen.Blit(off, int(inner.Min.X), int(inner.Min.Y))
}

// renderMagnifier renders a magnifying glass: the inner viewer drawn into
// its screen rectangle, clipped, with a frame.
func (v *Viewer) renderMagnifier(ctx context.Context, pen *raster.Pen, mag *Magnifier, stats *RenderStats) error {
	d, err := getDisplayable(ctx, mag.Inner.Source)
	if err != nil {
		return err
	}
	g := display.Promote(d)
	mag.Inner.ensureStates(g)
	if len(g.Members) == 0 {
		return fmt.Errorf("viewer %s: magnifier over empty group", v.Name)
	}
	// Dimensional check: magnifying glasses must match their containing
	// viewer's dimension (Section 7.2).
	outer, err := getDisplayable(ctx, v.Source)
	if err != nil {
		return err
	}
	if display.Promote(outer).Members[0].Dim() != g.Members[0].Dim() {
		return fmt.Errorf("viewer %s: magnifier dimension %d does not match containing viewer dimension %d",
			v.Name, g.Members[0].Dim(), display.Promote(outer).Members[0].Dim())
	}
	inner := mag.ScreenRect.Expand(-2)
	if inner.Empty() {
		return nil
	}
	pen.Rect(mag.ScreenRect, draw.Black, draw.Style{LineWidth: 2})
	return mag.Inner.renderMember(ctx, pen.WithClip(inner), inner, g.Members[0], mag.Inner.states[0], 0, 1, false, stats)
}

// evalDisplays computes the display list for each row index listed in
// idx, writing into the caller's parallel lists/errs slices (the other
// positions — memo hits — are left untouched). A nil list entry marks an
// evaluation failure (the tuple is skipped and counted) with the cause in
// errs; an empty-but-non-nil list is a successful empty display. When
// Parallel is enabled and the miss batch is large, evaluation fans out
// across workers — display functions are pure reads over the relation,
// and painting happens afterwards in tuple order, so the rendered output
// is identical. Workers write disjoint index sets, so the slices need no
// locking; each worker records its chunk as a trace span on its own track
// so the fan-out is visible in the timeline.
func (v *Viewer) evalDisplays(ctx context.Context, ext *display.Extended, rows []int, idx []int, lists []draw.List, errs []error) {
	eval := func(sw *display.Sweep, i int) {
		l, err := sw.Display(rows[i])
		if err != nil {
			lists[i], errs[i] = nil, err
			return
		}
		if l == nil {
			l = draw.List{}
		}
		lists[i] = l
	}
	if !v.Parallel || len(idx) < parallelThreshold {
		sw := ext.NewSweep()
		for _, i := range idx {
			eval(sw, i)
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(idx) {
		workers = len(idx)
	}
	recording := obs.Recording()
	var wg sync.WaitGroup
	chunk := (len(idx) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(idx) {
			hi = len(idx)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			if recording {
				// Track 1 is the render loop; workers get tracks 2+w. The
				// worker span inherits the display_eval span as parent
				// through ctx.
				_, sp := obs.StartSpanCtxOn(ctx, int64(2+w), obs.SpanRenderDisplayEvalWorker,
					"worker", strconv.Itoa(w), "rows", strconv.Itoa(hi-lo))
				defer sp.End()
			}
			sw := ext.NewSweep()
			for _, i := range idx[lo:hi] {
				eval(sw, i)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// parallelThreshold is the batch size below which parallel evaluation is
// not worth the goroutine overhead.
const parallelThreshold = 256
