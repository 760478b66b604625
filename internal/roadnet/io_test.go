package roadnet

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/geo"
)

func TestJSONRoundTrip(t *testing.T) {
	b := NewBuilder()
	a := b.AddVertex(geo.Pt(0, 0))
	c := b.AddVertex(geo.Pt(100, 50))
	d := b.AddVertex(geo.Pt(200, 0))
	b.AddBidirectional(a, c, 13.9, nil)
	b.AddEdge(c, d, 20, geo.Polyline{geo.Pt(100, 50), geo.Pt(150, 80), geo.Pt(200, 0)})
	g := b.Build()

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumSegments() != g.NumSegments() {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumSegments(), g.NumVertices(), g.NumSegments())
	}
	for i := range g.Segments {
		s1, s2 := g.Seg(i), g2.Seg(i)
		if s1.From != s2.From || s1.To != s2.To || s1.Speed != s2.Speed {
			t.Fatalf("segment %d differs", i)
		}
		if diff := s1.Length - s2.Length; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("segment %d length differs: %v vs %v", i, s1.Length, s2.Length)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"vertices":[{"x":0,"y":0}],"segments":[{"from":0,"to":5,"speed":10}]}`)); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"vertices":[{"x":0,"y":0},{"x":1,"y":0}],"segments":[{"from":0,"to":1,"speed":-5}]}`)); err == nil {
		t.Fatal("negative speed accepted")
	}
}

func TestGridJSONRoundTrip(t *testing.T) {
	g := NewGrid(5, 5, 150, 16)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	// Shortest paths agree between original and round-tripped graphs.
	_, d1, ok1 := g.VertexPathCtx(context.Background(), 0, 24)
	_, d2, ok2 := g2.VertexPathCtx(context.Background(), 0, 24)
	if !ok1 || !ok2 || d1 != d2 {
		t.Fatalf("paths differ: %v vs %v", d1, d2)
	}
}
