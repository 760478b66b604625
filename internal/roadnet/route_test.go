package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func TestRouteValidity(t *testing.T) {
	g := NewGrid(2, 3, 100, 15)
	// Find two connected horizontal eastbound edges along the bottom row.
	var e1, e2 EdgeID = NoEdge, NoEdge
	for i := range g.Segments {
		s := &g.Segments[i]
		if s.From == 0 && s.To == 1 {
			e1 = s.ID
		}
		if s.From == 1 && s.To == 2 {
			e2 = s.ID
		}
	}
	if e1 == NoEdge || e2 == NoEdge {
		t.Fatal("grid edges not found")
	}
	r := Route{e1, e2}
	if !r.Valid(g) {
		t.Fatal("connected route reported invalid")
	}
	if (Route{e2, e1}).Valid(g) {
		t.Fatal("disconnected route reported valid")
	}
	if !(Route{}).Valid(g) {
		t.Fatal("empty route should be valid")
	}
	if r.Start(g) != 0 || r.End(g) != 2 {
		t.Fatalf("endpoints: %d %d", r.Start(g), r.End(g))
	}
	if math.Abs(r.Length(g)-200) > 1e-9 {
		t.Fatalf("length = %v", r.Length(g))
	}
}

func TestRouteConcatWithBridge(t *testing.T) {
	g := NewGrid(3, 3, 100, 15)
	// Route A: edge 0->1 (bottom row); Route B: edge 7->8 (top row, east).
	find := func(u, v VertexID) EdgeID {
		for i := range g.Segments {
			if g.Segments[i].From == u && g.Segments[i].To == v {
				return g.Segments[i].ID
			}
		}
		t.Fatalf("edge %d->%d not found", u, v)
		return NoEdge
	}
	a := Route{find(0, 1)}
	bRoute := Route{find(7, 8)}
	joined, ok := a.Concat(g, bRoute)
	if !ok {
		t.Fatal("Concat failed")
	}
	if !joined.Valid(g) {
		t.Fatalf("joined route invalid: %v", joined)
	}
	if joined.Start(g) != 0 || joined.End(g) != 8 {
		t.Fatalf("joined endpoints: %d->%d", joined.Start(g), joined.End(g))
	}
	// Adjacent concat needs no bridge.
	c := Route{find(1, 2)}
	j2, ok := a.Concat(g, c)
	if !ok || len(j2) != 2 {
		t.Fatalf("adjacent concat = %v ok=%v", j2, ok)
	}
	// Empty route handling.
	if out, ok := (Route{}).Concat(g, a); !ok || !out.Equal(a) {
		t.Fatal("empty ◇ a failed")
	}
	if out, ok := a.Concat(g, Route{}); !ok || !out.Equal(a) {
		t.Fatal("a ◇ empty failed")
	}
}

func TestRouteDedupKeyEqual(t *testing.T) {
	r := Route{3, 3, 5, 5, 5, 7}
	d := r.Dedup()
	if !d.Equal(Route{3, 5, 7}) {
		t.Fatalf("Dedup = %v", d)
	}
	if r.Key() == d.Key() {
		t.Fatal("keys should differ")
	}
	if d.String() != "[3,5,7]" {
		t.Fatalf("String = %s", d.String())
	}
	if (Route{1}).Equal(Route{1, 2}) || !(Route{1, 2}).Equal(Route{1, 2}) {
		t.Fatal("Equal wrong")
	}
}

func TestRoutePoints(t *testing.T) {
	g := NewGrid(2, 3, 100, 15)
	find := func(u, v VertexID) EdgeID {
		for i := range g.Segments {
			if g.Segments[i].From == u && g.Segments[i].To == v {
				return g.Segments[i].ID
			}
		}
		return NoEdge
	}
	r := Route{find(0, 1), find(1, 2)}
	pl := r.Points(g)
	if len(pl) != 3 { // shared vertex deduplicated
		t.Fatalf("Points = %v", pl)
	}
	if !pl[0].Equal(geo.Pt(0, 0), 1e-9) || !pl[2].Equal(geo.Pt(200, 0), 1e-9) {
		t.Fatalf("Points endpoints = %v", pl)
	}
	if math.Abs(pl.Length()-r.Length(g)) > 1e-9 {
		t.Fatal("polyline length != route length")
	}
}

// TestAppendConcatMatchesConcat: growing a route in place gives exactly what
// the copying Concat gives — adjacent, overlapping, bridged, unbridgeable and
// empty operands alike — and a failed join leaves the route as it was.
func TestAppendConcatMatchesConcat(t *testing.T) {
	g := NewGrid(4, 5, 100, 15)
	rng := rand.New(rand.NewSource(3))
	walk := func() Route {
		var r Route
		e := EdgeID(rng.Intn(g.NumSegments()))
		for n := rng.Intn(5); n > 0; n-- {
			r = append(r, e)
			out := g.Out(g.Seg(e).To)
			e = out[rng.Intn(len(out))]
		}
		return r.Dedup()
	}
	for trial := 0; trial < 500; trial++ {
		r, s := walk(), walk()
		if trial%7 == 0 && len(r) > 0 {
			s = append(Route{r[len(r)-1]}, s...).Dedup() // overlap on the boundary segment
		}
		want, wantOK := r.Concat(g, s)
		got, ok := append(Route(nil), r...).AppendConcat(g, s)
		if ok != wantOK || ok && !got.Equal(want) {
			t.Fatalf("%v ◇ %v: AppendConcat %v, %v; Concat %v, %v", r, s, got, ok, want, wantOK)
		}
	}
	b := NewBuilder()
	u, v, w := b.AddVertex(geo.Pt(0, 0)), b.AddVertex(geo.Pt(100, 0)), b.AddVertex(geo.Pt(200, 0))
	uv, wv := b.AddEdge(u, v, 15, nil), b.AddEdge(w, v, 15, nil)
	oneWay := b.Build()
	if got, ok := (Route{uv}).AppendConcat(oneWay, Route{wv}); ok || !got.Equal(Route{uv}) {
		t.Fatalf("unbridgeable join returned %v, %v; want the route unchanged and ok=false", got, ok)
	}
}

// TestParallelSegmentsResolveToShortest: a vertex path over a doubled street
// takes the shorter of the parallel segments, and the lower id of equals.
func TestParallelSegmentsResolveToShortest(t *testing.T) {
	b := NewBuilder()
	u, v := b.AddVertex(geo.Pt(0, 0)), b.AddVertex(geo.Pt(100, 0))
	b.AddEdge(u, v, 15, geo.Polyline{geo.Pt(0, 0), geo.Pt(50, 80), geo.Pt(100, 0)})
	short := b.AddEdge(u, v, 15, nil)
	b.AddEdge(u, v, 15, nil) // as short, higher id
	b.AddEdge(v, u, 15, nil)
	g := b.Build()
	if r, _, ok := g.EdgePathBetweenVertices(u, v); !ok || !r.Equal(Route{short}) {
		t.Fatalf("path over the doubled street is %v, %v; want [%d]", r, ok, short)
	}
	if e := g.edgeFor(v, v); e != NoEdge {
		t.Fatalf("edgeFor found %d between a vertex and itself", e)
	}
}
