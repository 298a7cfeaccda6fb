package viewer

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/display"
	"repro/internal/draw"
	"repro/internal/obs"
	"repro/internal/raster"
	"repro/internal/spatial"
)

// This file holds the viewer's cross-frame caches. All three key on
// display.Gen generation stamps (see internal/rel and internal/display):
// a stamp changes whenever the underlying relation or the Extended's
// metadata mutates, so staleness never has to be guessed — an entry under
// an old Gen can simply never be looked up again. The display memo retires
// a generation's table once a frame passes without drawing it; the grid
// and wormhole caches reclaim old entries by bounded LRU. Renders are
// single-threaded outside the display evaluation fan-out (which touches
// none of these), so the caches need no locking; RenderInto is not safe
// for concurrent use on one Viewer, as before.

// Default capacities and thresholds, overridable per viewer.
const (
	// defaultMemoCap bounds the entries the display-list memo holds
	// across its generation tables: at ~a few drawables per list this is
	// a few MB worst case, room for every row of a large layer in both
	// the current and the previous generation.
	defaultMemoCap = 1 << 16
	// defaultSpatialThreshold is the relation size below which pass-1
	// culling stays a linear scan: building and probing a grid only pays
	// off once the scan itself is the frame's dominant cost.
	defaultSpatialThreshold = 2048
	// maxSpatialEntries bounds the per-viewer cache of built grids (one
	// per layer generation is live at a time; the rest are pan history).
	maxSpatialEntries = 8
	// maxWormholeEntries bounds the persistent wormhole interior cache.
	maxWormholeEntries = 32
)

// CacheStats reports the cumulative effectiveness of one viewer's
// render caches, independent of the obs registry (and therefore available
// in interactive sessions without enabling tracing).
type CacheStats struct {
	SpatialBuilds    int64 // grid indexes built
	SpatialQueries   int64 // pass-1 culls answered from a grid
	SpatialEvictions int64
	MemoHits         int64 // display lists served from the memo
	MemoMisses       int64 // display functions actually evaluated
	MemoEvictions    int64 // entries dropped by retirement or the cap
	MemoEntries      int   // current memo size
	MemoTables       int   // generation tables currently held
	WormholeHits     int64 // interiors blitted from cache
	WormholeRenders  int64 // interiors rendered
	WormholeStale    int64 // cached interiors retired by a generation change
	WormholeEntries  int   // current interior cache size
}

// String renders the stats compactly for the shell.
func (s CacheStats) String() string {
	rate := func(hit, miss int64) string {
		if hit+miss == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(hit)/float64(hit+miss))
	}
	return fmt.Sprintf(
		"memo %s hit (%d/%d, %d entries in %d tables, %d evicted) · spatial %d builds %d queries · wormhole %s hit (%d stale, %d entries)",
		rate(s.MemoHits, s.MemoMisses), s.MemoHits, s.MemoHits+s.MemoMisses, s.MemoEntries, s.MemoTables, s.MemoEvictions,
		s.SpatialBuilds, s.SpatialQueries,
		rate(s.WormholeHits, s.WormholeRenders), s.WormholeStale, s.WormholeEntries)
}

// CacheStats returns the viewer's cumulative cache counters.
func (v *Viewer) CacheStats() CacheStats {
	s := v.cacheStats
	if v.memo != nil {
		s.MemoEntries = v.memo.len()
		s.MemoTables = len(v.memo.tables)
	}
	s.WormholeEntries = len(v.whCache)
	return s
}

// InvalidateCaches drops every cross-frame cache. Rendering remains
// correct without ever calling this — generation keys retire stale
// entries — so it exists for tests and for reclaiming memory on demand.
func (v *Viewer) InvalidateCaches() {
	v.memo = nil
	v.grids = nil
	v.whCache = nil
}

// --- display-list memo --------------------------------------------------

// The memo holds one row-indexed table per layer generation. Display
// functions are pure reads over the relation (the same purity that
// justifies the parallel fan-out of evalDisplays), so (generation, row)
// fully determines the result — including the error result, which is
// memoized too so a broken display function does not re-fire every frame.
// A lookup is a slice index; pages of memoPageRows slots are allocated on
// first touch, so memory follows the rows actually drawn. Generations are
// unique and never recur, so a table not drawn in the current or the
// previous frame can never be hit again: renderFrame retires it.

const (
	memoPageShift = 6
	memoPageRows  = 1 << memoPageShift
	memoPageMask  = memoPageRows - 1
)

// memoSlot is one row's realized display list. A success is a non-nil
// list (possibly empty); a memoized failure is a nil list with its cause
// in err; the zero slot has not been evaluated.
type memoSlot struct {
	list draw.List
	err  error
}

func (s *memoSlot) filled() bool { return s.list != nil || s.err != nil }

// memoTable is one generation's display lists, indexed by row.
type memoTable struct {
	pages   [][]memoSlot // nil until a row in the page is stored
	entries int
	drawn   int64 // frame that last looked the table up
}

// slot returns row's slot, or nil when its page was never touched.
func (t *memoTable) slot(row int) *memoSlot {
	p := row >> memoPageShift
	if p >= len(t.pages) || t.pages[p] == nil {
		return nil
	}
	return &t.pages[p][row&memoPageMask]
}

// displayMemo maps each layer generation to its table. cap bounds the
// entries held across all tables.
type displayMemo struct {
	cap     int
	tables  map[display.Gen]*memoTable
	entries int
}

func newDisplayMemo(capacity int) *displayMemo {
	return &displayMemo{cap: capacity, tables: make(map[display.Gen]*memoTable)}
}

func (m *displayMemo) len() int { return m.entries }

// table returns gen's table for a relation of n rows, creating it empty,
// and marks it drawn in frame.
func (m *displayMemo) table(gen display.Gen, n int, frame int64) *memoTable {
	t, ok := m.tables[gen]
	if !ok {
		t = &memoTable{pages: make([][]memoSlot, (n+memoPageMask)>>memoPageShift)}
		m.tables[gen] = t
	}
	t.drawn = frame
	return t
}

// retire drops every table not drawn in frame or the frame before it,
// and reports how many entries went with them.
func (m *displayMemo) retire(frame int64) int {
	dropped := 0
	for gen, t := range m.tables {
		if t.drawn < frame-1 {
			dropped += t.entries
			m.entries -= t.entries
			delete(m.tables, gen)
		}
	}
	return dropped
}

// put stores the result for a row t does not hold yet (a miss) and
// reports how many entries were evicted to keep the memo within cap.
func (m *displayMemo) put(t *memoTable, row int, l draw.List, err error) int {
	evicted := m.makeRoom(t)
	p := row >> memoPageShift
	if p >= len(t.pages) {
		t.pages = append(t.pages, make([][]memoSlot, p+1-len(t.pages))...)
	}
	if t.pages[p] == nil {
		t.pages[p] = make([]memoSlot, memoPageRows)
	}
	t.pages[p][row&memoPageMask] = memoSlot{list: l, err: err}
	t.entries++
	m.entries++
	return evicted
}

// makeRoom evicts until one more entry fits under cap: whole tables
// least recently drawn go first, and t itself is cleared only when no
// other table is left. It reports the entries dropped.
func (m *displayMemo) makeRoom(t *memoTable) int {
	evicted := 0
	for m.entries >= m.cap {
		victim, victimGen := t, display.Gen{}
		for gen, o := range m.tables {
			if o != t && (victim == t || o.drawn < victim.drawn) {
				victim, victimGen = o, gen
			}
		}
		evicted += victim.entries
		m.entries -= victim.entries
		if victim == t {
			clear(t.pages)
			t.entries = 0
			break
		}
		delete(m.tables, victimGen)
	}
	return evicted
}

// noteMemoEvictions counts display-memo entries dropped.
func (v *Viewer) noteMemoEvictions(n int) {
	if n > 0 {
		v.cacheStats.MemoEvictions += int64(n)
		obs.Add(obs.RenderMemoEvictions, int64(n))
	}
}

// memoCap resolves the viewer's memo capacity.
func (v *Viewer) memoCap() int {
	if v.DisplayMemoCap > 0 {
		return v.DisplayMemoCap
	}
	return defaultMemoCap
}

// spatialThreshold resolves the viewer's linear-scan cutoff.
func (v *Viewer) spatialThreshold() int {
	if v.SpatialThreshold > 0 {
		return v.SpatialThreshold
	}
	return defaultSpatialThreshold
}

// --- spatial index cache ------------------------------------------------

// gridEntry is one built grid plus the frame it was last used on.
type gridEntry struct {
	grid     *spatial.Grid
	lastUsed int64
}

// spatialIndex returns the grid over ext's tuple locations for the given
// generation, building it on first use and reusing it across frames until
// the generation moves. Grids index raw locations (no layer offset):
// callers translate the query window instead, so layers sharing one
// relation share one grid.
func (v *Viewer) spatialIndex(ctx context.Context, ext *display.Extended, gen display.Gen) *spatial.Grid {
	if e, ok := v.grids[gen]; ok {
		e.lastUsed = v.frame
		return e.grid
	}
	var span *obs.Span
	if obs.Recording() {
		_, span = obs.StartSpanCtx(ctx, obs.SpanRenderSpatialBuild, "layer", ext.Label)
	}
	t := obs.StartTimer(obs.RenderSpatialBuildNS)
	sw := ext.NewSweep()
	g := spatial.Build(ext.Rel.Len(), func(i int) (float64, float64) {
		loc := sw.Location(i)
		return loc[0], loc[1]
	})
	t.Stop()
	span.End()
	v.cacheStats.SpatialBuilds++
	obs.Inc(obs.RenderSpatialBuilds)
	if v.grids == nil {
		v.grids = make(map[display.Gen]*gridEntry)
	}
	v.grids[gen] = &gridEntry{grid: g, lastUsed: v.frame}
	for len(v.grids) > maxSpatialEntries {
		var oldest display.Gen
		oldestUsed := int64(1<<63 - 1)
		for k, e := range v.grids {
			if e.lastUsed < oldestUsed {
				oldest, oldestUsed = k, e.lastUsed
			}
		}
		delete(v.grids, oldest)
		v.cacheStats.SpatialEvictions++
		obs.Inc(obs.RenderSpatialEvictions)
	}
	return g
}

// --- wormhole interior cache --------------------------------------------

// whEntry is one cached wormhole interior: the rendered image plus the
// generation signature of the destination it was rendered from. An entry
// is served only while the destination's signature still matches, so a
// mutation anywhere under the destination canvas retires exactly the
// interiors that depend on it — no wholesale per-frame clearing.
type whEntry struct {
	img      *raster.Image
	sig      string
	lastUsed int64
}

// destSignature fingerprints everything a wormhole interior render reads
// from its destination: the generation of each layer of the member it
// renders (metadata + data), each layer's offset, and the destination
// viewer's local override stamp (elevation-map range/order overrides,
// Section 6.1, live on the viewer rather than the displayable).
func destSignature(dest *Viewer, member *display.Composite) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "v%d", dest.overrideStamp)
	for _, l := range member.Layers {
		g := l.Ext.Generation()
		fmt.Fprintf(&sb, "|%d:%d@%v", g.Meta, g.Data, l.Offset)
	}
	return sb.String()
}

// evictWormholes bounds the interior cache by recency.
func (v *Viewer) evictWormholes() {
	for len(v.whCache) > maxWormholeEntries {
		var oldest wormholeKey
		oldestUsed := int64(1<<63 - 1)
		for k, e := range v.whCache {
			if e.lastUsed < oldestUsed {
				oldest, oldestUsed = k, e.lastUsed
			}
		}
		delete(v.whCache, oldest)
	}
}
