package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// containsBox reports whether o lies entirely within b.
func containsBox(b, o BBox) bool {
	return b.Min.X <= o.Min.X && o.Max.X <= b.Max.X &&
		b.Min.Y <= o.Min.Y && o.Max.Y <= b.Max.Y
}

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
	if !containsBox(b, BBox{Pt(2, 2), Pt(8, 8)}) || containsBox(b, BBox{Pt(2, 2), Pt(18, 8)}) {
		t.Error("box containment failed")
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
		return containsBox(u, b1) && containsBox(u, b2) &&
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

// TestBuiltinMinMaxMatchMath pins the builtin min and max, which ExtendPoint,
// DistToPoint and onSegment use, against math.Min and math.Max on the operands
// where floating-point order is subtle: NaN, signed zeros and infinities.
// Results are compared by bit pattern, so -0 and +0 are told apart. They
// agree everywhere but one corner: math lets the infinity that saturates the
// operation (-Inf for Min, +Inf for Max) beat a NaN, the builtins return the
// NaN. A box never meets that corner unless a coordinate is already infinite
// and another NaN (an empty box holds +Inf in Min and -Inf in Max).
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	vals := []float64{nan, inf, -inf, 0, negZero, 1, -1, 3.5, -1e300, math.SmallestNonzeroFloat64}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	// saturated reports the corner: a NaN operand beside the saturating infinity.
	saturated := func(x, y, sat float64) bool {
		return math.IsNaN(x) && y == sat || x == sat && math.IsNaN(y)
	}
	for _, x := range vals {
		for _, y := range vals {
			got, want := min(x, y), math.Min(x, y)
			if saturated(x, y, -inf) {
				want = nan
			}
			if !same(got, want) {
				t.Errorf("min(%v, %v) = %v, want %v", x, y, got, want)
			}
			got, want = max(x, y), math.Max(x, y)
			if saturated(x, y, inf) {
				want = nan
			}
			if !same(got, want) {
				t.Errorf("max(%v, %v) = %v, want %v", x, y, got, want)
			}
			// DistToPoint's three-operand form is the nested pair.
			if got, want := max(0, x, y), max(0, max(x, y)); !same(got, want) {
				t.Errorf("max(0, %v, %v) = %v, nested max = %v", x, y, got, want)
			}
		}
	}
}
