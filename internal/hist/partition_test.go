package hist

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// TestShardedPartitionGeometry: the grid factorizes n exactly, every point
// in (and beyond) the bbox has a unique in-range home, homes lie inside
// their own cell, and Overlapping is complete — a box always includes the
// home shards of all its points.
func TestShardedPartitionGeometry(t *testing.T) {
	box := geo.BBox{Min: geo.Pt(0, 0), Max: geo.Pt(600, 400)}
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 4, 6, 9, 12} {
		p := newPartition(box, n, 50)
		nx, ny := p.nx, p.ny
		if nx*ny != n {
			t.Fatalf("n=%d: dims %dx%d", n, nx, ny)
		}
		if nx < ny {
			t.Fatalf("n=%d: wider axis (x) got the smaller factor %dx%d", n, nx, ny)
		}
		for trial := 0; trial < 500; trial++ {
			// Sample inside the bbox and well beyond it (off-map noise).
			pt := geo.Pt(rng.Float64()*1200-300, rng.Float64()*800-200)
			h := p.Home(pt)
			if h < 0 || h >= n {
				t.Fatalf("n=%d: home %d out of range for %v", n, h, pt)
			}
			own := p.OwnCell(h)
			if pt.X < own.Min.X || pt.X > own.Max.X || pt.Y < own.Min.Y || pt.Y > own.Max.Y {
				t.Fatalf("n=%d: point %v homed to %d but outside own cell %v", n, pt, h, own)
			}
		}
		for trial := 0; trial < 200; trial++ {
			c := geo.Pt(rng.Float64()*700-50, rng.Float64()*500-50)
			qbox := geo.BBoxAround(c, 1+rng.Float64()*250)
			ids := p.Overlapping(nil, qbox)
			member := make(map[int]bool, len(ids))
			for _, id := range ids {
				member[id] = true
			}
			for k := 0; k < 50; k++ {
				pt := geo.Pt(
					qbox.Min.X+rng.Float64()*(qbox.Max.X-qbox.Min.X),
					qbox.Min.Y+rng.Float64()*(qbox.Max.Y-qbox.Min.Y),
				)
				if !member[p.Home(pt)] {
					t.Fatalf("n=%d: home %d of in-box point %v missing from Overlapping(%v)=%v",
						n, p.Home(pt), pt, qbox, ids)
				}
			}
		}
	}
}

// TestShardedPartitionCovering: the fast path triggers only when the box
// sits strictly inside the home shard's halo cell, and never lies — a
// covered box's points are all homed to shards whose trips the covering
// shard replicates (i.e. the box stays inside the halo cell).
func TestShardedPartitionCovering(t *testing.T) {
	box := geo.BBox{Min: geo.Pt(0, 0), Max: geo.Pt(600, 400)}
	p := newPartition(box, 4, 50) // 2×2: lines at x=300, y=200
	cases := []struct {
		box  geo.BBox
		want bool
	}{
		// Deep inside shard 0's territory.
		{geo.BBoxAround(geo.Pt(100, 100), 40), true},
		// Reaches into the halo but stays strictly inside it.
		{geo.BBoxAround(geo.Pt(300, 100), 49), true},
		// Touches the halo edge exactly: strictness demands scatter.
		{geo.BBoxAround(geo.Pt(300, 100), 50), false},
		// Crosses past the halo of the center's home cell.
		{geo.BBoxAround(geo.Pt(300, 100), 80), false},
		// Off-map boxes are covered by the unbounded edge cells.
		{geo.BBoxAround(geo.Pt(-500, -500), 100), true},
	}
	for i, c := range cases {
		if _, ok := p.Covering(c.box); ok != c.want {
			t.Fatalf("case %d: Covering(%v) = %v, want %v", i, c.box, ok, c.want)
		}
	}
	// A single-shard partition covers everything: its cell is the plane.
	p1 := newPartition(box, 1, 0)
	if _, ok := p1.Covering(geo.BBoxAround(geo.Pt(1e6, -1e6), 1e5)); !ok {
		t.Fatal("1-shard partition must cover every box")
	}
	// Degenerate bbox: never split the zero-extent axis.
	flat := newPartition(geo.BBox{Min: geo.Pt(0, 7), Max: geo.Pt(100, 7)}, 4, 0)
	if nx, ny := flat.nx, flat.ny; ny != 1 || nx != 4 {
		t.Fatalf("flat bbox dims %dx%d, want 4x1", nx, ny)
	}
}

// TestShardedPartitionReplicasIncludeHome: a point's replica set — the
// shards whose halo cell holds it, which is where assign indexes its trip —
// always contains its home shard: the containment the scatter gather relies
// on.
func TestShardedPartitionReplicasIncludeHome(t *testing.T) {
	box := geo.BBox{Min: geo.Pt(0, 0), Max: geo.Pt(600, 400)}
	rng := rand.New(rand.NewSource(7))
	for _, halo := range []float64{0, 25, 200} {
		p := newPartition(box, 9, halo)
		for trial := 0; trial < 300; trial++ {
			pt := geo.Pt(rng.Float64()*800-100, rng.Float64()*600-100)
			if hc := p.HaloCell(p.Home(pt)); !hc.Contains(pt) {
				t.Fatalf("halo %v: halo cell %v of home %d misses %v", halo, hc, p.Home(pt), pt)
			}
		}
	}
}
