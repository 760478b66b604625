package roadnet

import (
	"math"
	"testing"

	"repro/internal/geo"
)

// TestNeighborhoodDegenerateLambda: λ ≤ 1 admits no segment (Definition 8
// requires h(r,s) < λ with s ≠ r, and the smallest positive hop count is
// 1), so the neighborhood is empty — not a panic, not {r}.
func TestNeighborhoodDegenerateLambda(t *testing.T) {
	g := NewGrid(3, 3, 100, 15)
	for _, lambda := range []int{0, 1} {
		if n := lambdaHood(g, 0, lambda); len(n) != 0 {
			t.Errorf("N_%d(0) = %v, want empty", lambda, n)
		}
	}
}

// TestCandidateEdgesZeroRadius: ε = 0 keeps exactly the segments the point
// lies on, and finds nothing for an off-network point.
func TestCandidateEdgesZeroRadius(t *testing.T) {
	g := NewGrid(3, 3, 100, 15)
	on := g.CandidateEdges(geo.Pt(50, 0), 0)
	if len(on) == 0 {
		t.Fatal("point on a segment with eps=0 found no candidates")
	}
	for _, c := range on {
		if c.Dist != 0 {
			t.Errorf("edge %d: dist %v, want 0", c.Edge, c.Dist)
		}
	}
	if off := g.CandidateEdges(geo.Pt(-500, -500), 0); len(off) != 0 {
		t.Errorf("off-network point with eps=0 returned %v", off)
	}
}

// TestCandidateQueryOnVertex: a query point exactly on a vertex projects
// with zero distance onto every incident segment, at offset 0 (outgoing)
// or the full length (incoming).
func TestCandidateQueryOnVertex(t *testing.T) {
	g := NewGrid(3, 3, 100, 15)
	p := g.Vertices[4].Pt // center vertex: 4 outgoing + 4 incoming segments
	cands := g.CandidateEdges(p, 1)
	want := len(g.Out(4))
	for i := range g.Segments {
		if g.Segments[i].To == 4 {
			want++
		}
	}
	if len(cands) != want {
		t.Fatalf("got %d candidates, want %d incident segments", len(cands), want)
	}
	for _, c := range cands {
		if c.Dist != 0 {
			t.Errorf("edge %d: dist %v, want 0", c.Edge, c.Dist)
		}
		if c.Proj.Dist(p) != 0 {
			t.Errorf("edge %d: projection %v, want %v", c.Edge, c.Proj, p)
		}
		s := g.Seg(c.Edge)
		if c.Offset != 0 && math.Abs(c.Offset-s.Length) > 1e-9 {
			t.Errorf("edge %d: offset %v, want 0 or %v", c.Edge, c.Offset, s.Length)
		}
	}
	if l, ok := g.LocationOf(p); !ok || g.Point(l).Dist(p) != 0 {
		t.Errorf("LocationOf(vertex point) = %v, %v", l, ok)
	}
}

// TestCandidateRadiusNoEdges: a search radius that captures nothing
// returns an empty candidate set; downstream helpers built on it degrade
// instead of panicking.
func TestCandidateRadiusNoEdges(t *testing.T) {
	g := NewGrid(2, 2, 100, 15)
	far := geo.Pt(10000, 10000)
	if cands := g.CandidateEdges(far, 25); len(cands) != 0 {
		t.Errorf("far point returned candidates: %v", cands)
	}
	// NearestCandidates widens geometrically but gives up beyond the
	// network's extent; either outcome must be panic-free and ≤ k.
	if nc := g.NearestCandidates(far, 2); len(nc) > 2 {
		t.Errorf("NearestCandidates returned %d > k", len(nc))
	}
}
