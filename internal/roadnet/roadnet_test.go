package roadnet

import (
	"context"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/graphalg"
)

func TestBuilderAndValidate(t *testing.T) {
	b := NewBuilder()
	a := b.AddVertex(geo.Pt(0, 0))
	c := b.AddVertex(geo.Pt(100, 0))
	e1, e2 := b.AddBidirectional(a, c, 10, nil)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 2 || g.NumSegments() != 2 {
		t.Fatalf("counts: %d, %d", g.NumVertices(), g.NumSegments())
	}
	if g.Seg(e1).Length != 100 || g.Seg(e2).Length != 100 {
		t.Fatalf("lengths: %v %v", g.Seg(e1).Length, g.Seg(e2).Length)
	}
	if g.Seg(e2).From != c || g.Seg(e2).To != a {
		t.Fatal("reverse edge endpoints wrong")
	}
	if g.MaxSpeed() != 10 {
		t.Fatalf("MaxSpeed = %v", g.MaxSpeed())
	}
	if len(g.Out(a)) != 1 || len(g.Out(c)) != 1 {
		t.Fatal("adjacency wrong")
	}
}

func TestCurvedShape(t *testing.T) {
	b := NewBuilder()
	a := b.AddVertex(geo.Pt(0, 0))
	c := b.AddVertex(geo.Pt(10, 0))
	shape := geo.Polyline{geo.Pt(0, 0), geo.Pt(5, 5), geo.Pt(10, 0)}
	e := b.AddEdge(a, c, 10, shape)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := 2 * math.Hypot(5, 5)
	if got := g.Seg(e).Length; math.Abs(got-want) > 1e-9 {
		t.Fatalf("curved length = %v, want %v", got, want)
	}
}

func TestGridStructure(t *testing.T) {
	g := NewGrid(4, 5, 100, 15)
	if g.NumVertices() != 20 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Bidirectional: horizontal 4*4=16 pairs, vertical 3*5=15 pairs.
	if g.NumSegments() != 2*(16+15) {
		t.Fatalf("segments = %d", g.NumSegments())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Corner has exactly 2 outgoing edges; interior has 4.
	if len(g.Out(0)) != 2 {
		t.Fatalf("corner out-degree = %d", len(g.Out(0)))
	}
	if len(g.Out(1*5+1)) != 4 {
		t.Fatalf("interior out-degree = %d", len(g.Out(6)))
	}
}

func TestCandidateEdges(t *testing.T) {
	g := NewGrid(3, 3, 100, 15)
	// Point near the middle of the bottom-left horizontal street.
	p := geo.Pt(50, 8)
	cands := g.CandidateEdges(p, 20)
	if len(cands) != 2 { // both directions of that street
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	if cands[0].Dist != cands[1].Dist || cands[0].Edge > cands[1].Edge {
		t.Fatalf("twin edges %v: equidistant twins must come out by EdgeID", cands)
	}
	for _, c := range cands {
		if math.Abs(c.Dist-8) > 1e-9 {
			t.Fatalf("candidate dist = %v", c.Dist)
		}
		if !c.Proj.Equal(geo.Pt(50, 0), 1e-9) {
			t.Fatalf("projection = %v", c.Proj)
		}
	}
	// Larger radius picks up the two vertical streets as well.
	wide := g.CandidateEdges(p, 60)
	if len(wide) <= len(cands) {
		t.Fatalf("wide radius found %d", len(wide))
	}
	// Sorted by (distance, EdgeID).
	for i := 1; i < len(wide); i++ {
		if a, b := wide[i-1], wide[i]; b.Dist < a.Dist || b.Dist == a.Dist && b.Edge < a.Edge {
			t.Fatal("candidates not sorted")
		}
	}
	if got := g.CandidateEdges(geo.Pt(1e7, 1e7), 10); len(got) != 0 {
		t.Fatalf("far point candidates = %d", len(got))
	}
}

func TestNearestCandidates(t *testing.T) {
	g := NewGrid(3, 3, 100, 15)
	// A point far outside any 50m radius still finds segments.
	cands := g.NearestCandidates(geo.Pt(-400, -400), 3)
	if len(cands) != 3 {
		t.Fatalf("NearestCandidates = %d", len(cands))
	}
	if got := g.NearestCandidates(geo.Pt(0, 0), 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestNetworkDistanceSameEdge(t *testing.T) {
	g := NewGrid(2, 2, 100, 15)
	loc, ok := g.LocationOf(geo.Pt(20, 1))
	if !ok {
		t.Fatal("LocationOf failed")
	}
	b := Location{Edge: loc.Edge, Offset: loc.Offset + 50}
	if d := g.NetworkDistance(loc, b); math.Abs(d-50) > 1e-9 {
		t.Fatalf("same-edge distance = %v", d)
	}
}

func TestNetworkDistanceAcrossGrid(t *testing.T) {
	g := NewGrid(3, 3, 100, 15)
	// From a point 30 m along a bottom street to a point on the top street.
	a, _ := g.LocationOf(geo.Pt(30, 0))
	bLoc, _ := g.LocationOf(geo.Pt(130, 200))
	d := g.NetworkDistance(a, bLoc)
	route, rd, ok := g.PathBetweenLocations(a, bLoc)
	if !ok {
		t.Fatal("no path")
	}
	if math.Abs(d-rd) > 1e-9 {
		t.Fatalf("distance %v != path distance %v", d, rd)
	}
	if !route.Valid(g) {
		t.Fatalf("bridged route invalid: %v", route)
	}
	// Manhattan driving distance sanity: at least straight-line.
	pa, pb := g.Seg(a.Edge).Shape.At(a.Offset), g.Seg(bLoc.Edge).Shape.At(bLoc.Offset)
	if d < pa.Dist(pb)-1e-9 {
		t.Fatalf("network distance %v below straight line %v", d, pa.Dist(pb))
	}
}

func TestEdgeHopsAndNeighborhood(t *testing.T) {
	// Path of 4 one-way edges: e0 -> e1 -> e2 -> e3.
	b := NewBuilder()
	var vs []VertexID
	for i := 0; i <= 4; i++ {
		vs = append(vs, b.AddVertex(geo.Pt(float64(i)*100, 0)))
	}
	var es []EdgeID
	for i := 0; i < 4; i++ {
		es = append(es, b.AddEdge(vs[i], vs[i+1], 10, nil))
	}
	g := b.Build()
	var hs graphalg.HopSearch
	g.EdgeHopsFrom(context.Background(), &hs, es[0], -1)
	for i, want := range []int{0, 1, 2, 3} {
		if h := hs.Hops(es[i]); h != want {
			t.Fatalf("h(e0,e%d) = %d, want %d", i, h, want)
		}
	}
	// Definition 8: N_λ(r) = {s : h(r,s) < λ}.
	n2 := lambdaHood(g, es[0], 2)
	if len(n2) != 1 || n2[es[1]] != 1 {
		t.Fatalf("N_2(e0) = %v", n2)
	}
	n4 := lambdaHood(g, es[0], 4)
	if len(n4) != 3 {
		t.Fatalf("N_4(e0) = %v", n4)
	}
	// No backward reachability on one-way edges.
	g.EdgeHopsFrom(context.Background(), &hs, es[3], -1)
	if hs.Hops(es[0]) != -1 {
		t.Fatal("one-way edge should not reach backwards")
	}
}

func TestVertexPathOnGrid(t *testing.T) {
	g := NewGrid(4, 4, 100, 15)
	// Corner to corner: Manhattan distance 600.
	_, d, ok := g.VertexPathCtx(context.Background(), 0, 15)
	if !ok || math.Abs(d-600) > 1e-9 {
		t.Fatalf("corner-corner = %v ok=%v", d, ok)
	}
	route, rd, ok := g.EdgePathBetweenVertices(0, 15)
	if !ok || math.Abs(rd-600) > 1e-9 {
		t.Fatalf("edge path dist = %v", rd)
	}
	if !route.Valid(g) || route.Start(g) != 0 || route.End(g) != 15 {
		t.Fatalf("edge path invalid: %v", route)
	}
	if math.Abs(route.Length(g)-600) > 1e-9 {
		t.Fatalf("route length = %v", route.Length(g))
	}
}

func TestLocationOfEmptyGraph(t *testing.T) {
	g := NewBuilder().Build()
	if _, ok := g.LocationOf(geo.Pt(0, 0)); ok {
		t.Fatal("LocationOf on empty graph should fail")
	}
}
