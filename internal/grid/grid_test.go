package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
)

// everywhere clips nothing: a test grid's extent is its entries' bbox.
var everywhere = geo.BBox{Min: geo.Pt(math.Inf(-1), math.Inf(-1)), Max: geo.Pt(math.Inf(1), math.Inf(1))}

func randomPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	return pts
}

func pointBoxes(pts []geo.Point) []geo.BBox {
	bs := make([]geo.BBox, len(pts))
	for i, p := range pts {
		bs[i] = geo.BBox{Min: p, Max: p}
	}
	return bs
}

// build grids boxes with item i for boxes[i].
func build(boxes []geo.BBox) *Grid[int] {
	return New(everywhere, func(yield func(geo.BBox, int)) {
		for i, b := range boxes {
			yield(b, i)
		}
	})
}

func bruteRange(pts []geo.Point, q geo.BBox) []int {
	var ids []int
	for i, p := range pts {
		if q.Contains(p) {
			ids = append(ids, i)
		}
	}
	return ids
}

// bruteBoxes is bruteRange for box entries: every box meeting q.
func bruteBoxes(boxes []geo.BBox, q geo.BBox) []int {
	var ids []int
	for i, b := range boxes {
		if b.Intersects(q) {
			ids = append(ids, i)
		}
	}
	return ids
}

// search collects, sorted, every item Visit reports for q — an entry
// reported twice appears twice — and checks that each comes with the lower
// corner of its box (boxes[i] for item i).
func search(t testing.TB, g *Grid[int], boxes []geo.BBox, q geo.BBox) []int {
	t.Helper()
	var out []int
	g.Visit(q, func(lo geo.Point, i int) bool {
		if lo != boxes[i].Min {
			t.Fatalf("Visit(%v) reported item %d at %v, its box starts at %v", q, i, lo, boxes[i].Min)
		}
		out = append(out, i)
		return true
	})
	slices.Sort(out)
	return out
}

func TestEmptyTree(t *testing.T) {
	g := build(nil)
	if len(g.items) != 0 {
		t.Errorf("%d entries", len(g.items))
	}
	if got := search(t, g, nil, geo.BBox{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}); len(got) != 0 {
		t.Errorf("Visit on empty grid = %v", got)
	}
}

// TestRangeMatchesBruteForce cross-checks the grid against a linear scan on
// random boxes: over points, and over segment boxes that span many cells —
// long diagonal, horizontal and vertical segments among short ones —
// queried also with boxes whose edges lie exactly on cell lines and with
// boxes that only touch an entry. Every hit must be reported exactly once.
func TestRangeMatchesBruteForce(t *testing.T) {
	pts := randomPoints(2000, 42)
	g := build(pointBoxes(pts))
	if len(g.items) != 2000 || &g.hi[0] != &g.lo[0] {
		t.Fatalf("%d entries, hi aliasing lo %v: a point grid stores one coordinate array", len(g.items), &g.hi[0] == &g.lo[0])
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		c := geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
		r := rng.Float64() * 2000
		q := geo.BBoxAround(c, r)
		if got, want := search(t, g, pointBoxes(pts), q), bruteRange(pts, q); !slices.Equal(got, want) {
			t.Fatalf("Visit mismatch: got %d items, want %d", len(got), len(want))
		}
	}

	var boxes []geo.BBox
	for i := 0; i < 600; i++ {
		a := geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
		b := a.Add(geo.Pt((rng.Float64()-0.5)*600, (rng.Float64()-0.5)*600))
		boxes = append(boxes, geo.Polyline{a, b}.BBox())
	}
	long := []geo.BBox{
		{Min: geo.Pt(100, 200), Max: geo.Pt(9900, 9700)},   // diagonal, crossing most cells
		{Min: geo.Pt(0, 5000), Max: geo.Pt(10000, 5000)},   // horizontal: zero height
		{Min: geo.Pt(3333, 0), Max: geo.Pt(3333, 10000)},   // vertical: zero width
		{Min: geo.Pt(7000, 1000), Max: geo.Pt(7400, 1000)}, // short horizontal
	}
	boxes = append(boxes, long...)
	g = build(boxes)
	if g.nx < 4 || g.ny < 4 {
		t.Fatalf("%d×%d cells: too few for multi-cell entries", g.nx, g.ny)
	}
	queries := []geo.BBox{
		{Min: geo.Pt(0, 0), Max: geo.Pt(10000, 10000)},
		{Min: geo.Pt(-1, -1), Max: geo.Pt(-1, -1)},
		// Edges exactly on cell lines.
		{Min: geo.Pt(g.min.X+2*g.cw, g.min.Y+g.ch), Max: geo.Pt(g.min.X+4*g.cw, g.min.Y+3*g.ch)},
		{Min: geo.Pt(g.min.X+g.cw, g.min.Y), Max: geo.Pt(g.min.X+g.cw, g.min.Y+5*g.ch)},
		// Only touching an entry: the diagonal's corner, the vertical's
		// side, the horizontal's top edge, the short one's end.
		{Min: geo.Pt(9900, 9700), Max: geo.Pt(9950, 9800)},
		{Min: geo.Pt(3000, 4000), Max: geo.Pt(3333, 4100)},
		{Min: geo.Pt(6000, 4900), Max: geo.Pt(6100, 5000)},
		{Min: geo.Pt(7400, 900), Max: geo.Pt(7500, 1000)},
	}
	for trial := 0; trial < 200; trial++ {
		c := geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
		queries = append(queries, geo.BBoxAround(c, rng.Float64()*1500))
	}
	for _, q := range queries {
		got, want := search(t, g, boxes, q), bruteBoxes(boxes, q)
		if !slices.Equal(got, want) {
			t.Fatalf("Visit(%v) reported %v, scan %v", q, got, want)
		}
	}
	for i, b := range long {
		if got := search(t, g, boxes, b); slices.Index(got, len(boxes)-len(long)+i) < 0 {
			t.Fatalf("long entry %d missed by a query on its own box", i)
		}
	}
}

// withinRadius is a radius query the way hist makes one: Visit over the
// query's bounding box plus the exact distance test on the point the grid
// hands over.
func withinRadius(g *Grid[int], c geo.Point, r float64) []int {
	var ids []int
	g.Visit(geo.BBoxAround(c, r), func(p geo.Point, i int) bool {
		if p.Dist(c) <= r {
			ids = append(ids, i)
		}
		return true
	})
	slices.Sort(ids)
	return ids
}

func TestWithinRadiusMatchesBruteForce(t *testing.T) {
	pts := randomPoints(1000, 7)
	g := build(pointBoxes(pts))
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		c := geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
		r := rng.Float64() * 1500
		var want []int
		for i, p := range pts {
			if p.Dist(c) <= r {
				want = append(want, i)
			}
		}
		if got := withinRadius(g, c, r); !slices.Equal(got, want) {
			t.Fatalf("WithinRadius mismatch: got %d want %d", len(got), len(want))
		}
	}
}

func TestVisitEarlyStop(t *testing.T) {
	g := build(pointBoxes(randomPoints(500, 9)))
	count := 0
	done := g.Visit(geo.BBox{Min: geo.Pt(0, 0), Max: geo.Pt(10000, 10000)}, func(geo.Point, int) bool {
		count++
		return count < 10
	})
	if count != 10 || done {
		t.Errorf("early stop visited %d entries, ran to the end %v", count, done)
	}
}

// TestLayoutInvariants: every entry sits in exactly the cells its box spans,
// each cell in yield order, and start is monotone from 0 to the entry count.
func TestLayoutInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	boxes := pointBoxes(randomPoints(3000, 10))
	for i := 0; i < 300; i++ {
		a := geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
		boxes = append(boxes, geo.Polyline{a, a.Add(geo.Pt(rng.Float64()*3000, (rng.Float64()-0.5)*3000))}.BBox())
	}
	g := build(boxes)
	if g.nx*g.ny < len(boxes)/occupancy/2 {
		t.Errorf("%d×%d cells for %d entries", g.nx, g.ny, len(boxes))
	}
	if g.start[0] != 0 || g.start[len(g.start)-1] != len(g.items) || len(g.start) != g.nx*g.ny+1 {
		t.Fatalf("start spans [%d, %d] over %d cells, %d entries", g.start[0], g.start[len(g.start)-1], len(g.start)-1, len(g.items))
	}
	cellsOf := make([][]int, len(boxes))
	for c := 0; c+1 < len(g.start); c++ {
		if g.start[c] > g.start[c+1] {
			t.Fatalf("start not monotone at cell %d", c)
		}
		prev := -1
		for i := g.start[c]; i < g.start[c+1]; i++ {
			item := g.items[i]
			if item <= prev {
				t.Fatalf("cell %d out of yield order", c)
			}
			if g.lo[i] != boxes[item].Min || g.hi[i] != boxes[item].Max {
				t.Fatalf("slot %d holds %v–%v for entry %d %v", i, g.lo[i], g.hi[i], item, boxes[item])
			}
			prev = item
			cellsOf[item] = append(cellsOf[item], c)
		}
	}
	for i, b := range boxes {
		var want []int
		for y := AxisCell(b.Min.Y, g.min.Y, g.ch, g.ny); y <= AxisCell(b.Max.Y, g.min.Y, g.ch, g.ny); y++ {
			for x := AxisCell(b.Min.X, g.min.X, g.cw, g.nx); x <= AxisCell(b.Max.X, g.min.X, g.cw, g.nx); x++ {
				want = append(want, y*g.nx+x)
			}
		}
		if !slices.Equal(cellsOf[i], want) {
			t.Fatalf("entry %d %v in cells %v, spans %v", i, b, cellsOf[i], want)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	p := geo.Pt(5, 5)
	pts := make([]geo.Point, 100)
	for i := range pts {
		pts[i] = p
	}
	g := build(pointBoxes(pts))
	if got := search(t, g, pointBoxes(pts), geo.BBoxAround(p, 1)); len(got) != 100 {
		t.Errorf("duplicate search returned %d, want 100", len(got))
	}
}

// TestWithinRadiusNegative: a negative radius is an inverted box, which
// Visit meets with nothing; a zero radius stays an exact point query.
func TestWithinRadiusNegative(t *testing.T) {
	pts := randomPoints(50, 31)
	g := build(pointBoxes(pts))
	if got := search(t, g, pointBoxes(pts), geo.BBoxAround(pts[0], -1)); len(got) != 0 {
		t.Fatalf("Visit(r=-1) = %d entries, want none", len(got))
	}
	if got := withinRadius(g, pts[0], 0); !slices.Contains(got, 0) {
		t.Fatal("radius-0 query at an entry's own point missed it")
	}
}

func BenchmarkBuild10k(b *testing.B) {
	boxes := pointBoxes(randomPoints(10000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(boxes)
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	boxes := pointBoxes(randomPoints(50000, 2))
	g := build(boxes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(b, g, boxes, geo.BBoxAround(geo.Pt(5000, 5000), 500))
	}
}
