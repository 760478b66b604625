// Package grid is the program's one spatial index: an immutable uniform grid
// of cells over boxes, answering "which entries meet this box?" in no
// particular order. Both of the paper's index questions are of that shape —
// candidate edges within ε of a GPS point (Definition 5, roadnet's segment
// index) and archive points within φ of a query point (§II-B.1 and
// Definitions 6–7, hist's shard segments) — and neither needs a tree: the
// grid is built by counting sort in linear time and walked with no
// allocation.
//
// An entry is a box and an item; a point is a box with Min == Max. An entry
// whose box spans several cells is stored in each of them, and Visit reports
// it once, in the cell holding the lower corner of its overlap with the
// query box — a rule that needs no seen-set.
package grid

import (
	"math"

	"repro/internal/geo"
)

// occupancy is the mean number of entries per cell a grid is sized for. A
// range query scans every entry of the cells its box overlaps and tests
// each against the box, so the cost of a φ-query is the cells it touches
// plus the entries in them. Fewer entries per cell means more, smaller runs
// to step through and a larger offsets table (8 bytes per cell); more means
// more entries scanned and rejected at the box's edges. Measured on a
// 1,200-trip archive at φ = 500 m, 2, 4 and 8 answer within noise of each
// other and 16 and 32 are slower (DESIGN.md §6b.10); 8 is the smallest table
// on the flat part, one byte per point.
const occupancy = 8

// Grid is a uniform grid of cells over entries of type T, in CSR layout:
// the entries of cell c are slots start[c] to start[c+1]-1, cells numbered
// row by row. Slot i holds the box lo[i]–hi[i] and the item items[i]. When
// every entry is a point, hi is lo — one array, not a copy — so a point
// grid stores 16 bytes of coordinates per entry and its walk reads only
// those until a point matches. Nothing is mutated after New, so a Grid is
// safe for concurrent readers.
type Grid[T any] struct {
	min    geo.Point // extent's lower corner
	cw, ch float64   // cell width / height (0 on an unsplit axis)
	nx, ny int
	start  []int
	lo, hi []geo.Point
	items  []T
}

// New grids the entries each yields; each is called three times and must
// yield the same entries in the same order every time. The extent is the
// bounding box of the entries (NaN aside), clipped to clip, so outliers
// cannot stretch the cells: they clamp into the boundary cells, and a NaN
// coordinate lands in cell 0, where no box ever meets it. The cell count is
// the entry count ÷ occupancy. The build is a counting sort — one pass
// measures, one counts the entries per cell, one places them — and each
// cell keeps its entries in yield order.
func New[T any](clip geo.BBox, each func(yield func(geo.BBox, T))) *Grid[T] {
	ext, n, points := geo.EmptyBBox(), 0, true
	each(func(b geo.BBox, _ T) {
		n++
		points = points && b.Min == b.Max
		if !math.IsNaN(b.Min.X) && !math.IsNaN(b.Max.X) && !math.IsNaN(b.Min.Y) && !math.IsNaN(b.Max.Y) {
			ext.Min = geo.Pt(min(ext.Min.X, b.Min.X), min(ext.Min.Y, b.Min.Y))
			ext.Max = geo.Pt(max(ext.Max.X, b.Max.X), max(ext.Max.Y, b.Max.Y))
		}
	})
	ext.Min = geo.Pt(max(ext.Min.X, clip.Min.X), max(ext.Min.Y, clip.Min.Y))
	ext.Max = geo.Pt(min(ext.Max.X, clip.Max.X), min(ext.Max.Y, clip.Max.Y))
	w, h := ext.Max.X-ext.Min.X, ext.Max.Y-ext.Min.Y

	g := &Grid[T]{min: ext.Min}
	g.nx, g.ny = shape(w, h, max(n/occupancy, 1))
	if g.nx > 1 {
		g.cw = w / float64(g.nx)
	}
	if g.ny > 1 {
		g.ch = h / float64(g.ny)
	}
	// start[c+1] counts cell c's entries, then the prefix sum makes start[c]
	// the cell's beginning; placing advances start[c] to the cell's end,
	// which the final shift turns back into the next cell's beginning.
	g.start = make([]int, g.nx*g.ny+1)
	each(func(b geo.BBox, _ T) {
		x0, x1, y0, y1 := g.span(b)
		for y := y0; y <= y1; y++ {
			for c := y*g.nx + x0; c <= y*g.nx+x1; c++ {
				g.start[c+1]++
			}
		}
	})
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	slots := g.start[len(g.start)-1]
	g.lo, g.items = make([]geo.Point, slots), make([]T, slots)
	g.hi = g.lo // for points, hi[i] = b.Max below rewrites the lo[i] it equals
	if !points {
		g.hi = make([]geo.Point, slots)
	}
	each(func(b geo.BBox, it T) {
		x0, x1, y0, y1 := g.span(b)
		for y := y0; y <= y1; y++ {
			for c := y*g.nx + x0; c <= y*g.nx+x1; c++ {
				i := g.start[c]
				g.lo[i], g.hi[i], g.items[i] = b.Min, b.Max, it
				g.start[c]++
			}
		}
	})
	copy(g.start[1:], g.start)
	g.start[0] = 0
	return g
}

// shape splits a w×h extent into about cells square cells: a line (one axis
// without extent) into cells along it, a point or an empty extent into one.
// No axis gets more than cells, however thin the extent. An extent too wide
// for a float64 has an infinite side, so Inf/Inf = NaN cells along it: that
// axis stays unsplit rather than handing int() a NaN.
func shape(w, h float64, cells int) (nx, ny int) {
	side := max(w, h) / float64(cells)
	if w > 0 && h > 0 {
		side = math.Sqrt(w * h / float64(cells))
	}
	along := func(ext float64) int {
		n := math.Ceil(ext / side)
		if !(side > 0) || !(n >= 1) {
			return 1
		}
		return int(min(n, float64(cells)))
	}
	return along(w), along(h)
}

// AxisCell maps a coordinate to its cell index along one axis: floor-based
// half-open intervals, clamped so boundary cells own everything beyond the
// extent (and a whole unsplit axis maps to 0). It clamps before converting
// to int — Go leaves an out-of-range float→int conversion to the platform,
// and amd64 turns 1e300 into a negative index — and sends NaN to cell 0.
// Grid and hist's shard partition number their cells with it, and both
// rely on it being monotone in v.
func AxisCell(v, min, cell float64, n int) int {
	if n <= 1 || cell <= 0 {
		return 0
	}
	f := math.Floor((v - min) / cell)
	if !(f > 0) {
		return 0
	}
	if f >= float64(n-1) {
		return n - 1
	}
	return int(f)
}

// span returns the cells b covers, columns x0..x1 of rows y0..y1. An axis
// on which b has no extent — both axes of a point — costs one AxisCell.
func (g *Grid[T]) span(b geo.BBox) (x0, x1, y0, y1 int) {
	x0, y0 = AxisCell(b.Min.X, g.min.X, g.cw, g.nx), AxisCell(b.Min.Y, g.min.Y, g.ch, g.ny)
	x1, y1 = x0, y0
	if b.Max.X != b.Min.X {
		x1 = AxisCell(b.Max.X, g.min.X, g.cw, g.nx)
	}
	if b.Max.Y != b.Min.Y {
		y1 = AxisCell(b.Max.Y, g.min.Y, g.ch, g.ny)
	}
	return x0, x1, y0, y1
}

// Visit calls fn with the lower corner and the item of every entry whose
// box meets q (boundary contact counts), each exactly once, and reports
// whether the walk ran to the end (fn never returned false). In a point
// grid the lower corner is the point itself, so a caller filtering hits by
// position reads nothing but the grid. Cells are monotone in each coordinate,
// so an entry meeting q is stored in a cell between the cells of q's
// corners, and the cells q overlaps in one row are one contiguous run of
// slots. A multi-cell entry is seen in every such cell it spans and
// reported only in the one holding the lower corner of its overlap with q —
// that corner lies in both boxes, so exactly one scanned cell holds it; the
// run's slot i is in that cell when start[c] ≤ i < start[c+1]. An entry of
// zero width or height spans one cell on that axis and skips the check
// there; a point skips both.
func (g *Grid[T]) Visit(q geo.BBox, fn func(geo.Point, T) bool) bool {
	if !(q.Min.X <= q.Max.X && q.Min.Y <= q.Max.Y) {
		return true // inverted or NaN: meets nothing
	}
	x0, x1, y0, y1 := g.span(q)
	for y := y0; y <= y1; y++ {
		row := y * g.nx
		s, e := g.start[row+x0], g.start[row+x1+1]
		hi, items := g.hi[s:e], g.items[s:e]
		for k, l := range g.lo[s:e] {
			h := hi[k]
			if !(l.X <= q.Max.X && q.Min.X <= h.X && l.Y <= q.Max.Y && q.Min.Y <= h.Y) {
				continue
			}
			if l.X != h.X {
				c := row + AxisCell(max(l.X, q.Min.X), g.min.X, g.cw, g.nx)
				if i := s + k; i < g.start[c] || i >= g.start[c+1] {
					continue
				}
			}
			if l.Y != h.Y && AxisCell(max(l.Y, q.Min.Y), g.min.Y, g.ch, g.ny) != y {
				continue
			}
			if !fn(l, items[k]) {
				return false
			}
		}
	}
	return true
}
