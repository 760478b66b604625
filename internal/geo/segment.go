package geo

// Segment is a directed straight line segment from A to B.
type Segment struct {
	A, B Point
}

// Length returns the segment length in meters.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Project returns the point on s closest to p and the parameter t in [0,1]
// such that the closest point equals A.Lerp(B, t).
func (s Segment) Project(p Point) (Point, float64) {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return s.A, 0
	}
	t := p.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return s.A.Lerp(s.B, t), t
}

// Dist returns the minimum distance from p to the segment, realizing the
// paper's dist(p, r) = min_{c in r} d(p, c) for a single straight piece.
func (s Segment) Dist(p Point) float64 {
	c, _ := s.Project(p)
	return p.Dist(c)
}

// Intersects reports whether segments s and t share at least one point.
func (s Segment) Intersects(t Segment) bool {
	d1 := direction(t.A, t.B, s.A)
	d2 := direction(t.A, t.B, s.B)
	d3 := direction(s.A, s.B, t.A)
	d4 := direction(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(t.A, t.B, s.A)) ||
		(d2 == 0 && onSegment(t.A, t.B, s.B)) ||
		(d3 == 0 && onSegment(s.A, s.B, t.A)) ||
		(d4 == 0 && onSegment(s.A, s.B, t.B))
}

func direction(a, b, c Point) float64 { return c.Sub(a).Cross(b.Sub(a)) }

func onSegment(a, b, c Point) bool {
	return min(a.X, b.X) <= c.X && c.X <= max(a.X, b.X) &&
		min(a.Y, b.Y) <= c.Y && c.Y <= max(a.Y, b.Y)
}
