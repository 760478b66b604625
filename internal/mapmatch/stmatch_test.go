package mapmatch

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// disconnectedNet builds a network with two components that no arc
// connects: v0—v1 around x∈[0,100] and v2—v3 around x∈[400,500].
func disconnectedNet() *roadnet.Graph {
	b := roadnet.NewBuilder()
	v0 := b.AddVertex(geo.Pt(0, 0))
	v1 := b.AddVertex(geo.Pt(100, 0))
	v2 := b.AddVertex(geo.Pt(400, 0))
	v3 := b.AddVertex(geo.Pt(500, 0))
	b.AddBidirectional(v0, v1, 15, nil)
	b.AddBidirectional(v2, v3, 15, nil)
	return b.Build()
}

// TestTransitionScoresDisconnected: a candidate pair with no connecting
// path must yield an explicit -Inf transition score — never NaN (the old
// code risked 0·Inf in the temporal term's denominator) and never a
// finite value.
func TestTransitionScoresDisconnected(t *testing.T) {
	g := disconnectedNet()
	m := NewSTMatcher(g, DefaultParams())
	prev := candidatesFor(g, geo.Pt(50, 5), m.Params)
	cur := candidatesFor(g, geo.Pt(450, 5), m.Params)
	if len(prev) == 0 || len(cur) == 0 {
		t.Fatalf("no candidates: prev=%d cur=%d", len(prev), len(cur))
	}
	f := m.transitionScores(prev, cur, 400, 60)
	for pj := range f {
		for j, s := range f[pj] {
			if math.IsNaN(s) {
				t.Fatalf("f[%d][%d] is NaN", pj, j)
			}
			if !math.IsInf(s, -1) {
				t.Errorf("f[%d][%d] = %v, want -Inf for cross-component transition", pj, j, s)
			}
		}
	}

	// Sanity check of the reachable direction within one component.
	cur1 := candidatesFor(g, geo.Pt(80, 5), m.Params)
	f = m.transitionScores(prev, cur1, 30, 10)
	finite := false
	for pj := range f {
		for _, s := range f[pj] {
			if !math.IsInf(s, -1) && !math.IsNaN(s) {
				finite = true
			}
		}
	}
	if !finite {
		t.Fatal("no finite transition inside a connected component")
	}
}

// TestSTMatchDisconnectedCandidate: when consecutive points fall in
// different components, the DP layer goes fully dead and the matcher must
// restart the chain there instead of failing or producing NaN scores.
func TestSTMatchDisconnectedCandidate(t *testing.T) {
	g := disconnectedNet()
	tr := &traj.Trajectory{ID: "disc", Points: []traj.GPSPoint{
		{Pt: geo.Pt(30, 5), T: 0},
		{Pt: geo.Pt(80, 5), T: 30},
		{Pt: geo.Pt(430, 5), T: 60},
		{Pt: geo.Pt(480, 5), T: 90},
	}}
	for _, m := range []Matcher{
		NewSTMatcher(g, DefaultParams()),
		NewIVMM(g, DefaultParams()),
		NewHMM(g, DefaultParams()),
	} {
		route, err := m.Match(tr)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !route.Valid(g) {
			t.Fatalf("%s: invalid route %v", m.Name(), route)
		}
	}
}
