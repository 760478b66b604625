package roadnet

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
)

func mkpt(x, y float64) geo.Point { return geo.Pt(x, y) }

func TestComputeStatsGrid(t *testing.T) {
	g := NewGrid(4, 5, 100, 15)
	st := g.ComputeStats()
	if st.Vertices != 20 || st.Segments != 62 {
		t.Fatalf("counts: %d vertices, %d segments", st.Vertices, st.Segments)
	}
	if math.Abs(st.TotalLengthKm-6.2) > 1e-9 {
		t.Fatalf("total length = %v km", st.TotalLengthKm)
	}
	if math.Abs(st.MeanSegLen-100) > 1e-9 {
		t.Fatalf("mean segment = %v m", st.MeanSegLen)
	}
	if st.MaxSpeed != 15 {
		t.Fatalf("max speed = %v", st.MaxSpeed)
	}
	// Bidirectional grid is strongly connected.
	if st.SCCs != 1 || st.LargestSCC != 20 {
		t.Fatalf("connectivity: %d SCCs, largest %d", st.SCCs, st.LargestSCC)
	}
	if st.MaxOutDegree != 4 {
		t.Fatalf("max out-degree = %d", st.MaxOutDegree)
	}
	if !strings.Contains(st.String(), "20 vertices") {
		t.Fatalf("String() = %q", st.String())
	}
}

func TestComputeStatsDisconnected(t *testing.T) {
	b := NewBuilder()
	a := b.AddVertex(mkpt(0, 0))
	c := b.AddVertex(mkpt(100, 0))
	d := b.AddVertex(mkpt(500, 500))
	e := b.AddVertex(mkpt(600, 500))
	b.AddBidirectional(a, c, 10, nil)
	b.AddEdge(d, e, 10, nil) // one-way island
	g := b.Build()
	st := g.ComputeStats()
	if st.SCCs != 3 { // {a,c}, {d}, {e}
		t.Fatalf("SCCs = %d", st.SCCs)
	}
	if st.LargestSCC != 2 {
		t.Fatalf("largest = %d", st.LargestSCC)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g := NewBuilder().Build()
	st := g.ComputeStats()
	if st.Vertices != 0 || st.LargestSCC != 0 {
		t.Fatalf("empty stats: %+v", st)
	}
}
