package roadnet

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
)

// FuzzReadJSON: arbitrary bytes as a dataset's road network. ReadJSON never
// panics; every graph it accepts passes Validate and re-serialises
// byte-identically (WriteJSON → ReadJSON → WriteJSON); and at every vertex
// and every segment midpoint, for ε ∈ {0, 1, 100}, CandidateEdges answers
// exactly what a scan of all segments does — CandidateOn, kept when
// Dist ≤ ε, sorted by (Dist, EdgeID).
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := NewGrid(3, 3, 100, 10).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Wider than a float64 can hold: the bbox width overflows to +Inf.
	f.Add([]byte(`{"vertices":[{"x":-1e308,"y":0},{"x":1e308,"y":0},{"x":0,"y":1}],` +
		`"segments":[{"from":0,"to":2,"speed":10},{"from":2,"to":1,"speed":10},` +
		`{"from":1,"to":0,"speed":10,"shape":[[1e308,0],[0,-1],[-1e308,0]]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted an invalid graph: %v", err)
		}
		var first, second bytes.Buffer
		if err := g.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rejected its own serialisation: %v", err)
		}
		if err := g2.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the graph:\n%s\n%s", first.Bytes(), second.Bytes())
		}

		var probes []geo.Point
		for _, v := range g.Vertices {
			probes = append(probes, v.Pt)
		}
		for i := range g.Segments {
			probes = append(probes, g.Segments[i].Shape.At(g.Segments[i].Length/2))
		}
		for _, p := range probes {
			for _, eps := range []float64{0, 1, 100} {
				var want []Candidate
				for e := range g.Segments {
					if c := g.CandidateOn(p, e); c.Dist <= eps {
						want = append(want, c)
					}
				}
				slices.SortFunc(want, func(a, b Candidate) int {
					return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Edge, b.Edge))
				})
				if got := g.CandidateEdges(p, eps); !slices.EqualFunc(got, want, sameCandidate) {
					t.Fatalf("CandidateEdges(%v, %v) = %v, scan %v", p, eps, got, want)
				}
			}
		}
	})
}

// sameCandidate compares bit patterns, so a NaN offset (0·Inf on a segment
// too long for a float64) equals itself.
func sameCandidate(a, b Candidate) bool {
	bits := math.Float64bits
	return a.Edge == b.Edge && bits(a.Proj.X) == bits(b.Proj.X) && bits(a.Proj.Y) == bits(b.Proj.Y) &&
		bits(a.Dist) == bits(b.Dist) && bits(a.Offset) == bits(b.Offset)
}
