package hist

import (
	"math"

	"repro/internal/geo"
	"repro/internal/traj"
)

// gridOccupancy is the mean number of points per cell a grid is sized for.
// A range query scans every entry of the cells its box overlaps and tests
// each against the box, so the cost of a φ-query is the cells it touches
// plus the entries in them. Fewer points per cell means more, smaller runs
// to step through and a larger offsets table (8 bytes per cell); more means
// more entries scanned and rejected at the box's edges. Measured on a
// 1,200-trip archive at φ = 500 m, 2, 4 and 8 answer within noise of each
// other and 16 and 32 are slower (DESIGN.md §6b.10); 8 is the smallest table
// on the flat part, one byte per point.
const gridOccupancy = 8

// grid is one immutable segment of a shard's index: a uniform grid of cells
// over the segment's points, in CSR layout — the entries of cell c are
// ents[start[c]:start[c+1]], cells numbered row by row, so the cells one box
// overlaps in a row are one contiguous run. The reference search asks only
// "which points lie within φ of q", in any order (Definitions 6–7), which a
// grid answers with no tree to descend and no node to allocate.
type grid struct {
	min    geo.Point // extent's lower corner
	cw, ch float64   // cell width / height (0 on an unsplit axis)
	nx, ny int
	start  []int
	ents   []gridEntry
}

type gridEntry struct {
	pt  geo.Point
	ref PointRef
}

// newGrid indexes the points of the trips ids names — n points in all —
// under global PointRefs. The extent is the bounding box of the points (NaN
// aside), clipped to clip (the graph's bbox), so off-map noise cannot
// stretch the cells: it clamps into the boundary cells, as Partition's cells
// do, and a NaN coordinate lands in cell 0, where no box ever contains it.
// The build is a counting sort: one pass counts the points per cell, one
// places them.
func newGrid(trajs []*traj.Trajectory, ids []int, n int, clip geo.BBox) *grid {
	ext := geo.EmptyBBox()
	for _, ti := range ids {
		for _, p := range trajs[ti].Points {
			if !math.IsNaN(p.Pt.X) && !math.IsNaN(p.Pt.Y) {
				ext = ext.ExtendPoint(p.Pt)
			}
		}
	}
	ext.Min = geo.Pt(max(ext.Min.X, clip.Min.X), max(ext.Min.Y, clip.Min.Y))
	ext.Max = geo.Pt(min(ext.Max.X, clip.Max.X), min(ext.Max.Y, clip.Max.Y))
	w, h := ext.Max.X-ext.Min.X, ext.Max.Y-ext.Min.Y

	g := &grid{min: ext.Min}
	g.nx, g.ny = gridShape(w, h, max(n/gridOccupancy, 1))
	if g.nx > 1 {
		g.cw = w / float64(g.nx)
	}
	if g.ny > 1 {
		g.ch = h / float64(g.ny)
	}
	g.start = make([]int, g.nx*g.ny+1)
	for _, ti := range ids {
		for _, p := range trajs[ti].Points {
			g.start[g.cell(p.Pt)]++
		}
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	// start[c] is now the end of cell c. Placing back to front leaves it at
	// the cell's beginning and each cell in (trip, point) order.
	g.ents = make([]gridEntry, n)
	for k := len(ids) - 1; k >= 0; k-- {
		pts := trajs[ids[k]].Points
		for pi := len(pts) - 1; pi >= 0; pi-- {
			c := g.cell(pts[pi].Pt)
			g.start[c]--
			g.ents[g.start[c]] = gridEntry{pts[pi].Pt, PointRef{Traj: ids[k], Idx: pi}}
		}
	}
	return g
}

// gridShape splits a w×h extent into about cells square cells: a line (one
// axis without extent) into cells along it, a point or an empty extent into
// one. No axis gets more than cells, however thin the extent.
func gridShape(w, h float64, cells int) (nx, ny int) {
	side := max(w, h) / float64(cells)
	if w > 0 && h > 0 {
		side = math.Sqrt(w * h / float64(cells))
	}
	along := func(ext float64) int {
		if !(side > 0) {
			return 1
		}
		return int(min(max(math.Ceil(ext/side), 1), float64(cells)))
	}
	return along(w), along(h)
}

// cell returns the index of the cell holding p.
func (g *grid) cell(p geo.Point) int {
	return axisCell(p.Y, g.min.Y, g.ch, g.ny)*g.nx + axisCell(p.X, g.min.X, g.cw, g.nx)
}

// visit calls fn for every point inside box (boundary included) and reports
// whether the walk ran to the end. Cells are monotone in each coordinate, so
// a point inside box lies in a cell between the cells of box's corners.
func (g *grid) visit(box geo.BBox, fn func(PointRef) bool) bool {
	if !(box.Min.X <= box.Max.X && box.Min.Y <= box.Max.Y) {
		return true // inverted or NaN: holds nothing
	}
	x0, x1 := axisCell(box.Min.X, g.min.X, g.cw, g.nx), axisCell(box.Max.X, g.min.X, g.cw, g.nx)
	y0, y1 := axisCell(box.Min.Y, g.min.Y, g.ch, g.ny), axisCell(box.Max.Y, g.min.Y, g.ch, g.ny)
	for row := y0 * g.nx; row <= y1*g.nx; row += g.nx {
		for _, e := range g.ents[g.start[row+x0]:g.start[row+x1+1]] {
			if box.Contains(e.pt) && !fn(e.ref) {
				return false
			}
		}
	}
	return true
}
