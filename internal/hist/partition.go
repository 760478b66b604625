package hist

import (
	"math"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/traj"
)

// partition is a uniform nx×ny grid over the graph's bounding box that
// assigns every point in the plane to exactly one shard (its "home") and,
// around every cell, a halo margin in which neighboring shards replicate
// trips. The grid cells tile the whole plane, not just the bbox: boundary
// cells extend to infinity on their outer edges, so off-map GPS noise still
// gets a unique home and sharded answers stay identical to a single store's.
//
// Two derived regions drive the sharded store:
//
//   - OwnCell(i): shard i's exclusive territory. Homes are unique, so
//     filtering gathered hits by Home is an exact dedup.
//   - HaloCell(i): OwnCell(i) expanded by the halo margin. A trip is
//     replicated into every shard whose halo cell one of its points touches,
//     which guarantees shard i indexes every archive point located inside
//     HaloCell(i) — the invariant behind the single-shard query fast path.
//
// Correctness never depends on the halo size: the scatter path (query every
// shard whose own cell overlaps the search box, keep only home-owned hits)
// is complete for halo 0. The halo is a performance knob — sizing it at or
// above the reference-search radius φ makes boundary-adjacent queries
// resolvable from one shard.
type partition struct {
	box    geo.BBox // partitioned extent (the graph bbox)
	nx, ny int
	cw, ch float64 // cell width / height (0 when the axis is not split)
	halo   float64
}

// newPartition grids box into n shards with the given halo margin. The n
// shards are arranged as the most balanced divisor pair nx·ny = n, with the
// larger factor along the wider bbox axis; a degenerate axis (zero extent)
// is never split. n < 1 is treated as 1; a negative halo as 0.
func newPartition(box geo.BBox, n int, halo float64) *partition {
	if n < 1 {
		n = 1
	}
	if halo < 0 || math.IsNaN(halo) {
		halo = 0
	}
	w := box.Max.X - box.Min.X
	h := box.Max.Y - box.Min.Y
	// Most balanced factorization n = a·b with a ≤ b.
	a := 1
	for d := int(math.Sqrt(float64(n))); d >= 1; d-- {
		if n%d == 0 {
			a = d
			break
		}
	}
	b := n / a
	nx, ny := b, a // larger factor on x by default
	if h > w {
		nx, ny = a, b
	}
	// Never split a zero-extent axis: all cells would collapse onto one
	// line and every shard but one would own nothing anyway.
	if w <= 0 && nx > 1 {
		nx, ny = 1, n
	}
	if h <= 0 && ny > 1 {
		if w <= 0 {
			nx, ny = 1, 1
		} else {
			nx, ny = n, 1
		}
	}
	p := &partition{box: box, nx: nx, ny: ny, halo: halo}
	if nx > 1 {
		p.cw = w / float64(nx)
	}
	if ny > 1 {
		p.ch = h / float64(ny)
	}
	return p
}

// N returns the number of shards.
func (p *partition) N() int { return p.nx * p.ny }

// Home returns the unique shard owning point pt, numbering cells with the
// same clamped, monotone grid.AxisCell the shard segments use.
func (p *partition) Home(pt geo.Point) int {
	ix := grid.AxisCell(pt.X, p.box.Min.X, p.cw, p.nx)
	iy := grid.AxisCell(pt.Y, p.box.Min.Y, p.ch, p.ny)
	return iy*p.nx + ix
}

// axisSpan returns cell i's territory along one axis, expanded by margin.
// Boundary cells extend to infinity on their outer edge so the cells tile
// the whole plane.
func axisSpan(i int, min, cell float64, n int, margin float64) (lo, hi float64) {
	if n <= 1 || cell <= 0 {
		return math.Inf(-1), math.Inf(1)
	}
	lo, hi = math.Inf(-1), math.Inf(1)
	if i > 0 {
		lo = min + float64(i)*cell - margin
	}
	if i < n-1 {
		hi = min + float64(i+1)*cell + margin
	}
	return lo, hi
}

// cellBox returns shard i's territory expanded by margin on interior edges.
func (p *partition) cellBox(i int, margin float64) geo.BBox {
	ix, iy := i%p.nx, i/p.nx
	x0, x1 := axisSpan(ix, p.box.Min.X, p.cw, p.nx, margin)
	y0, y1 := axisSpan(iy, p.box.Min.Y, p.ch, p.ny, margin)
	return geo.BBox{Min: geo.Point{X: x0, Y: y0}, Max: geo.Point{X: x1, Y: y1}}
}

// OwnCell returns shard i's exclusive territory: Home(pt) == i exactly when
// OwnCell(i) contains pt (lower edges inclusive, upper edges exclusive;
// boundary cells unbounded outward).
func (p *partition) OwnCell(i int) geo.BBox { return p.cellBox(i, 0) }

// HaloCell returns OwnCell(i) expanded by the halo margin — the region whose
// archive points shard i is guaranteed to index.
func (p *partition) HaloCell(i int) geo.BBox { return p.cellBox(i, p.halo) }

// Covering returns the single shard whose halo cell strictly contains box,
// if any — the query fast path. Strict containment (not touching the halo
// boundary) sidesteps the floating-point edge where a point at exactly halo
// distance could be assigned to one side only; boxes reaching the boundary
// fall back to the exact scatter path.
func (p *partition) Covering(box geo.BBox) (int, bool) {
	home := p.Home(box.Center())
	hc := p.HaloCell(home)
	if hc.Min.X < box.Min.X && box.Max.X < hc.Max.X &&
		hc.Min.Y < box.Min.Y && box.Max.Y < hc.Max.Y {
		return home, true
	}
	return 0, false
}

// assign appends to dst the shards that must index trip tr: every shard whose
// halo cell contains at least one of tr's points. The trip's home shards (of
// each point) are always included, because a point's own cell is inside its
// halo cell — that containment is the scatter path's completeness invariant.
func (p *partition) assign(dst []int, tr *traj.Trajectory) []int {
	for i := 0; i < p.N(); i++ {
		hc := p.HaloCell(i)
		for _, pt := range tr.Points {
			if hc.Min.X <= pt.Pt.X && pt.Pt.X <= hc.Max.X &&
				hc.Min.Y <= pt.Pt.Y && pt.Pt.Y <= hc.Max.Y {
				dst = append(dst, i)
				break
			}
		}
	}
	return dst
}

// Overlapping appends to dst the shards whose own cells intersect box — the
// shards that can own points inside box — and returns it in ascending shard
// order. The grid is small (tens of cells), so a full sweep beats index
// arithmetic for clarity and is exact at cell boundaries (touching counts,
// and the boundary cells' infinite edges compare like any other).
func (p *partition) Overlapping(dst []int, box geo.BBox) []int {
	for i := 0; i < p.N(); i++ {
		if p.OwnCell(i).Intersects(box) {
			dst = append(dst, i)
		}
	}
	return dst
}
