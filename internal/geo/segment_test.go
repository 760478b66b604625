package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestSegmentProject(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	cases := []struct {
		p     Point
		want  Point
		wantT float64
	}{
		{Pt(5, 3), Pt(5, 0), 0.5},
		{Pt(-4, 3), Pt(0, 0), 0},   // clamped to start
		{Pt(14, -3), Pt(10, 0), 1}, // clamped to end
		{Pt(0, 0), Pt(0, 0), 0},    // on the segment
	}
	for _, c := range cases {
		got, gotT := s.Project(c.p)
		if !got.Equal(c.want, 1e-12) || !almostEq(gotT, c.wantT, 1e-12) {
			t.Errorf("Project(%v) = %v,%v want %v,%v", c.p, got, gotT, c.want, c.wantT)
		}
	}
}

func TestSegmentProjectDegenerate(t *testing.T) {
	s := Segment{Pt(2, 2), Pt(2, 2)}
	got, tt := s.Project(Pt(5, 5))
	if got != Pt(2, 2) || tt != 0 {
		t.Errorf("degenerate Project = %v,%v", got, tt)
	}
	if d := s.Dist(Pt(5, 6)); !almostEq(d, 5, 1e-12) {
		t.Errorf("degenerate Dist = %v, want 5", d)
	}
}

// TestProjectionIsNearest checks the optimality of Project: no sampled point
// on the segment is closer than the projection.
func TestProjectionIsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := Segment{
			Pt(rng.Float64()*100, rng.Float64()*100),
			Pt(rng.Float64()*100, rng.Float64()*100),
		}
		p := Pt(rng.Float64()*200-50, rng.Float64()*200-50)
		best := s.Dist(p)
		for k := 0; k <= 50; k++ {
			c := s.A.Lerp(s.B, float64(k)/50)
			if p.Dist(c) < best-1e-9 {
				t.Fatalf("sampled point %v closer than projection: %v < %v", c, p.Dist(c), best)
			}
		}
	}
}

func TestSegmentLengthHeading(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(3, 4)}
	if s.Length() != 5 {
		t.Errorf("Length = %v", s.Length())
	}
	if h := Pt(0, 0).Heading(Pt(0, 2)); !almostEq(h, math.Pi/2, 1e-12) {
		t.Errorf("Heading = %v", h)
	}
}
