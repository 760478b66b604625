package mapmatch

import (
	"context"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// resetProjector resets pj over g with a bridge memo of its own.
func resetProjector(pj *Projector, g *roadnet.Graph, prm Params, pts []geo.Point, rows RowSource) {
	var br roadnet.Bridges
	br.Reset(g)
	pj.Reset(g, prm, pts, rows, &br)
}

// projectPoints projects pts in order: a Projector over pts as its point
// table, driven with the identity index sequence.
func projectPoints(g *roadnet.Graph, pts []geo.Point, prm Params) (roadnet.Route, error) {
	var pj Projector
	resetProjector(&pj, g, prm, pts, nil)
	seq := make([]int, len(pts))
	for i := range seq {
		seq[i] = i
	}
	return pj.Project(context.Background(), seq)
}

func TestProjectPointSequence(t *testing.T) {
	g := roadnet.NewGrid(3, 5, 100, 15)
	// Points along the bottom row heading east, slightly noisy.
	pts := []geo.Point{
		geo.Pt(10, 4), geo.Pt(120, -5), geo.Pt(230, 6), geo.Pt(360, -3),
	}
	route, err := projectPoints(g, pts, DefaultParams())
	if err != nil {
		t.Fatalf("projectPoints: %v", err)
	}
	if !route.Valid(g) {
		t.Fatalf("invalid route %v", route)
	}
	// The route heads east along the bottom row (y=0 street), so its start
	// is near the first point and end near the last.
	first := g.Seg(route[0])
	last := g.Seg(route[len(route)-1])
	if first.Shape.Dist(pts[0]) > 30 || last.Shape.Dist(pts[len(pts)-1]) > 30 {
		t.Fatalf("route does not bracket the points: %v", route)
	}
	// Direction-aware: the chosen first edge heads east, not west.
	s := g.Seg(route[0])
	if g.Vertices[s.To].Pt.X <= g.Vertices[s.From].Pt.X {
		t.Fatal("heading-aware projection picked the wrong direction")
	}
}

func TestProjectPointSequenceDegenerate(t *testing.T) {
	g := roadnet.NewGrid(2, 2, 100, 15)
	if _, err := projectPoints(g, nil, DefaultParams()); err == nil {
		t.Fatal("empty input accepted")
	}
	route, err := projectPoints(g, []geo.Point{geo.Pt(50, 2)}, DefaultParams())
	if err != nil || len(route) != 1 {
		t.Fatalf("single point: %v, %v", route, err)
	}
}

func TestMatcherNames(t *testing.T) {
	g := roadnet.NewGrid(2, 2, 100, 15)
	prm := DefaultParams()
	names := map[string]Matcher{
		"point-to-curve": NewPointToCurve(g, prm),
		"incremental":    NewIncremental(g, prm),
		"st-matching":    NewSTMatcher(g, prm),
		"ivmm":           NewIVMM(g, prm),
		"hmm":            NewHMM(g, prm),
	}
	for want, m := range names {
		if m.Name() != want {
			t.Errorf("Name() = %q, want %q", m.Name(), want)
		}
	}
}
