package roadnet

import (
	"fmt"

	"repro/internal/graphalg"
)

// Stats summarizes a road network for tooling output and sanity checks.
type Stats struct {
	Vertices      int
	Segments      int
	TotalLengthKm float64
	MeanSegLen    float64
	MaxSpeed      float64
	MeanOutDegree float64
	MaxOutDegree  int
	SCCs          int // strongly connected components of the vertex graph
	LargestSCC    int // vertex count of the largest component
}

// ComputeStats derives the summary.
func (g *Graph) ComputeStats() Stats {
	st := Stats{
		Vertices: g.NumVertices(),
		Segments: g.NumSegments(),
		MaxSpeed: g.MaxSpeed(),
	}
	var total float64
	for i := range g.Segments {
		total += g.Segments[i].Length
	}
	st.TotalLengthKm = total / 1000
	if st.Segments > 0 {
		st.MeanSegLen = total / float64(st.Segments)
	}
	var degSum int
	for v := range g.Vertices {
		d := len(g.Out(v))
		degSum += d
		if d > st.MaxOutDegree {
			st.MaxOutDegree = d
		}
	}
	if st.Vertices > 0 {
		st.MeanOutDegree = float64(degSum) / float64(st.Vertices)
	}
	comp, count := graphalg.StronglyConnectedComponents(g.VertexGraph())
	st.SCCs = count
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	for _, s := range sizes {
		if s > st.LargestSCC {
			st.LargestSCC = s
		}
	}
	return st
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf(
		"%d vertices, %d segments, %.1f km total (mean %.0f m), max speed %.1f m/s, mean out-degree %.2f (max %d), %d SCCs (largest %d)",
		s.Vertices, s.Segments, s.TotalLengthKm, s.MeanSegLen, s.MaxSpeed,
		s.MeanOutDegree, s.MaxOutDegree, s.SCCs, s.LargestSCC)
}
