package geo

import (
	"math"
	"testing"
)

// FuzzPolylineProject: for arbitrary polylines and probes, the projection
// is on the curve (its own distance to the polyline is ~0) and At/Project
// offsets stay within the curve's extent.
func FuzzPolylineProject(f *testing.F) {
	f.Add(0.0, 0.0, 100.0, 0.0, 100.0, 100.0, 50.0, 30.0)
	f.Add(-10.0, 5.0, 3.0, -8.0, 0.0, 0.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, px, py float64) {
		for _, v := range []float64{x1, y1, x2, y2, x3, y3, px, py} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		pl := Polyline{Pt(x1, y1), Pt(x2, y2), Pt(x3, y3)}
		p := Pt(px, py)
		c, piece, off := pl.Project(p)
		if piece < 0 || piece > 1 {
			t.Fatalf("piece = %d", piece)
		}
		if off < -1e-9 || off > pl.Length()+1e-9 {
			t.Fatalf("offset %v outside [0, %v]", off, pl.Length())
		}
		// The projected point lies on the curve.
		if d := pl.Dist(c); d > 1e-6*(1+pl.Length()) {
			t.Fatalf("projection %v is %v off the curve", c, d)
		}
		// No sampled point beats the projection.
		best := p.Dist(c)
		for k := 0; k <= 32; k++ {
			s := pl.At(pl.Length() * float64(k) / 32)
			if p.Dist(s) < best-1e-6*(1+best) {
				t.Fatalf("sample %v closer than projection", s)
			}
		}
	})
}

// FuzzBBoxOps: extend/contains/intersects stay consistent for arbitrary
// boxes built from fuzzed points.
func FuzzBBoxOps(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 5.0, 5.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, px, py float64) {
		for _, v := range []float64{ax, ay, bx, by, px, py} {
			if math.IsNaN(v) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		b := EmptyBBox().ExtendPoint(Pt(ax, ay)).ExtendPoint(Pt(bx, by))
		p := Pt(px, py)
		ext := b.ExtendPoint(p)
		if !ext.Contains(p) || !containsBox(ext, b) {
			t.Fatal("extend lost containment")
		}
		if b.Contains(p) && b.DistToPoint(p) != 0 {
			t.Fatal("contained point at nonzero distance")
		}
		if !b.Intersects(ext) {
			t.Fatal("box must intersect its extension")
		}
	})
}
