package geo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyBBox(t *testing.T) {
	b := EmptyBBox()
	if !b.IsEmpty() {
		t.Fatal("EmptyBBox not empty")
	}
	if b.Area() != 0 || b.Margin() != 0 {
		t.Errorf("empty box Area/Margin nonzero")
	}
	b2 := b.ExtendPoint(Pt(3, 4))
	if b2.IsEmpty() || !b2.Contains(Pt(3, 4)) {
		t.Errorf("ExtendPoint on empty box failed: %v", b2)
	}
}

func TestBBoxContainsIntersects(t *testing.T) {
	b := BBox{Pt(0, 0), Pt(10, 10)}
	if !b.Contains(Pt(0, 0)) || !b.Contains(Pt(10, 10)) || !b.Contains(Pt(5, 5)) {
		t.Error("Contains boundary/interior failed")
	}
	if b.Contains(Pt(-0.1, 5)) || b.Contains(Pt(5, 10.1)) {
		t.Error("Contains exterior")
	}
	if !b.Intersects(BBox{Pt(10, 10), Pt(20, 20)}) {
		t.Error("corner contact should intersect")
	}
	if b.Intersects(BBox{Pt(11, 0), Pt(20, 10)}) {
		t.Error("disjoint boxes intersect")
	}
	if !b.ContainsBox(BBox{Pt(2, 2), Pt(8, 8)}) || b.ContainsBox(BBox{Pt(2, 2), Pt(18, 8)}) {
		t.Error("ContainsBox failed")
	}
}

func TestBBoxAround(t *testing.T) {
	b := BBoxAround(Pt(5, 5), 2)
	if b.Min != Pt(3, 3) || b.Max != Pt(7, 7) {
		t.Errorf("BBoxAround = %v", b)
	}
}

func TestBBoxDistToPoint(t *testing.T) {
	b := BBox{Pt(0, 0), Pt(10, 10)}
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 5), 0},
		{Pt(13, 5), 3},
		{Pt(5, -4), 4},
		{Pt(13, 14), 5},
	}
	for _, c := range cases {
		if got := b.DistToPoint(c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("DistToPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestBBoxExtendProperties: extending one box by another's two corners —
// how the grid measures its extent — yields a box containing both.
func TestBBoxExtendProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		b1 := EmptyBBox().ExtendPoint(Pt(clampCoord(ax), clampCoord(ay))).ExtendPoint(Pt(clampCoord(bx), clampCoord(by)))
		b2 := EmptyBBox().ExtendPoint(Pt(clampCoord(cx), clampCoord(cy))).ExtendPoint(Pt(clampCoord(dx), clampCoord(dy)))
		u := b1.ExtendPoint(b2.Min).ExtendPoint(b2.Max)
		return u.ContainsBox(b1) && u.ContainsBox(b2) &&
			u.Area() >= b1.Area() && u.Area() >= b2.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxCenterMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p, q := Pt(rng.Float64()*100, rng.Float64()*100), Pt(rng.Float64()*100, rng.Float64()*100)
		b := EmptyBBox().ExtendPoint(p).ExtendPoint(q)
		c := b.Center()
		if !b.Contains(c) {
			t.Fatalf("center %v outside box %v", c, b)
		}
	}
}
