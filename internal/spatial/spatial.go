// Package spatial provides the uniform-grid point index behind the
// viewer's pass-1 culling. The paper's pipeline filters tuples to the
// visible real estate before computing display attributes (Sections 2 and
// 5.1); with an index over tuple locations that filter answers a viewport
// query by visiting only the grid cells overlapping the window, so a
// pan-step over a large, stable relation costs O(visible) instead of
// O(dataset). Zoomable-interface systems (Pad++, DEVise's visual queries)
// rely on exactly this kind of spatial structure for interactive panning.
//
// The grid is immutable once built: callers key a cache of Grids on the
// relation's generation stamp and rebuild on mutation rather than
// updating in place.
package spatial

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// Grid is a uniform-grid index over n 2-D points. Cells are square with
// side cell; each cell holds the indices of the points inside it. Points
// with non-finite coordinates are left out of the grid (a viewport query
// can never match them: NaN fails every range comparison).
type Grid struct {
	cell  float64
	cells map[[2]int][]int32
	n     int
}

// targetPerCell sizes cells so a query touches few cells while each cell
// stays cheap to scan: roughly this many points per occupied cell under a
// uniform distribution.
const targetPerCell = 8

// Build indexes points 0..n-1, reading each location through at. The at
// callback is invoked once per point, in order.
func Build(n int, at func(i int) (x, y float64)) *Grid {
	g := &Grid{n: n, cells: make(map[[2]int][]int32)}

	// First pass: bounding box of the finite points.
	xs := make([]float64, n)
	ys := make([]float64, n)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	finite := 0
	for i := 0; i < n; i++ {
		x, y := at(i)
		xs[i], ys[i] = x, y
		if !finiteCoord(x, y) {
			continue
		}
		finite++
		minX, minY = math.Min(minX, x), math.Min(minY, y)
		maxX, maxY = math.Max(maxX, x), math.Max(maxY, y)
	}
	if finite == 0 {
		g.cell = 1
		return g
	}

	// Cell side: the bounding square divided so that an average occupied
	// cell holds targetPerCell points. Degenerate extents (all points
	// coincident) fall back to one cell.
	extent := math.Max(maxX-minX, maxY-minY)
	side := extent / math.Max(1, math.Sqrt(float64(finite)/targetPerCell))
	if side <= 0 || math.IsInf(side, 0) || math.IsNaN(side) {
		side = 1
	}
	g.cell = side

	for i := 0; i < n; i++ {
		if !finiteCoord(xs[i], ys[i]) {
			continue
		}
		c := g.cellOf(xs[i], ys[i])
		g.cells[c] = append(g.cells[c], int32(i))
	}
	return g
}

func finiteCoord(x, y float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && !math.IsNaN(y) && !math.IsInf(y, 0)
}

func (g *Grid) cellOf(x, y float64) [2]int {
	return [2]int{int(math.Floor(x / g.cell)), int(math.Floor(y / g.cell))}
}

// Len returns the number of indexed points (including non-finite ones,
// which never match a query).
func (g *Grid) Len() int { return g.n }

// Cells returns the number of occupied grid cells.
func (g *Grid) Cells() int { return len(g.cells) }

// Query appends to buf the indices of all points that may lie in r, in
// ascending order, and returns the extended slice. The result is a
// superset of the points actually inside r (whole cells are taken), so
// callers re-apply their exact containment test; it is exactly the points
// whose cell overlaps r, and ascending order keeps downstream painting
// deterministic — the same tuple order a linear scan produces.
func (g *Grid) Query(r geom.Rect, buf []int32) []int32 {
	if r.Empty() || len(g.cells) == 0 {
		return buf
	}
	lo := g.cellOf(r.Min.X, r.Min.Y)
	hi := g.cellOf(r.Max.X, r.Max.Y)

	// When the window covers more cells than can possibly be occupied,
	// walk the occupied cells instead of the window.
	start := len(buf)
	window := (int64(hi[0]-lo[0]) + 1) * (int64(hi[1]-lo[1]) + 1)
	if window > int64(len(g.cells)) {
		for c, rows := range g.cells {
			if c[0] >= lo[0] && c[0] <= hi[0] && c[1] >= lo[1] && c[1] <= hi[1] {
				buf = append(buf, rows...)
			}
		}
	} else {
		for cx := lo[0]; cx <= hi[0]; cx++ {
			for cy := lo[1]; cy <= hi[1]; cy++ {
				buf = append(buf, g.cells[[2]int{cx, cy}]...)
			}
		}
	}
	slices.Sort(buf[start:])
	return buf
}
