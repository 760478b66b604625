package core

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/roadnet"
)

func TestAblateEntropyScoring(t *testing.T) {
	w := newWorld(t, 50, 121)
	pctx := testPairContext(map[roadnet.EdgeID][]int{0: {1, 2}, 1: {3}})
	route := roadnet.Route{0, 1}
	w.p.AblateEntropy = false
	full, refs := w.exec().scoreRoute(route, pctx)
	w.p.AblateEntropy = true
	bare, refs2 := w.exec().scoreRoute(route, pctx)
	if len(refs) != 3 || len(refs2) != 3 {
		t.Fatalf("refs: %d, %d", len(refs), len(refs2))
	}
	if bare != 3 {
		t.Fatalf("ablated score = %v, want 3", bare)
	}
	if full == bare {
		t.Fatal("ablation did not change the score")
	}
}

func TestAblateTransitionInKGRI(t *testing.T) {
	g := roadnet.NewGrid(2, 5, 100, 15)
	find := func(u, v roadnet.VertexID) roadnet.EdgeID {
		for i := range g.Segments {
			if g.Segments[i].From == u && g.Segments[i].To == v {
				return g.Segments[i].ID
			}
		}
		t.Fatalf("edge %d->%d missing", u, v)
		return roadnet.NoEdge
	}
	// Two alternatives per pair: one continuous (same refs), one not.
	locals := [][]LocalRoute{
		{
			{Route: roadnet.Route{find(0, 1)}, Refs: refSet(1, 2), Popularity: 1},
		},
		{
			{Route: roadnet.Route{find(1, 2)}, Refs: refSet(1, 2), Popularity: 1},   // continuous
			{Route: roadnet.Route{find(1, 2)}, Refs: refSet(8, 9), Popularity: 1.2}, // popular but discontinuous
		},
	}
	best := func(constantTransition bool) GlobalRoute {
		post := newPosterior(1, constantTransition)
		for _, set := range locals {
			post.push(set)
		}
		return materialize(g, locals, post.rank())[0]
	}
	// With transition confidence the continuous chain wins despite lower f.
	if with := best(false); with.Parts[1] != 0 {
		t.Fatalf("with transitions picked part %d", with.Parts[1])
	}
	// Ablated, raw popularity wins.
	if without := best(true); without.Parts[1] != 1 {
		t.Fatalf("ablated transitions picked part %d", without.Parts[1])
	}
}

func TestTrimRoute(t *testing.T) {
	g := roadnet.NewGrid(2, 6, 100, 15)
	find := func(u, v roadnet.VertexID) roadnet.EdgeID {
		for i := range g.Segments {
			if g.Segments[i].From == u && g.Segments[i].To == v {
				return g.Segments[i].ID
			}
		}
		return roadnet.NoEdge
	}
	// Route covering vertices 0..5 along the bottom row.
	route := roadnet.Route{find(0, 1), find(1, 2), find(2, 3), find(3, 4), find(4, 5)}
	// Query actually spans x≈150..350: the first and last edges overhang.
	start, end := pt(150, 5), pt(350, -5)
	trimmed := trimRoute(g, route, start, end)
	if len(trimmed) != 3 {
		t.Fatalf("trimmed to %d edges, want 3 (%v)", len(trimmed), trimmed)
	}
	if trimmed.Start(g) != 1 || trimmed.End(g) != 4 {
		t.Fatalf("trimmed span %d..%d", trimmed.Start(g), trimmed.End(g))
	}
	// A route that matches the query span exactly is untouched.
	same := trimRoute(g, route, pt(10, 0), pt(490, 0))
	if len(same) != 5 {
		t.Fatalf("exact-span route trimmed to %d", len(same))
	}
	// Single-edge routes are never trimmed away.
	one := roadnet.Route{find(2, 3)}
	if got := trimRoute(g, one, pt(0, 0), pt(500, 0)); len(got) != 1 {
		t.Fatalf("single edge trimmed: %v", got)
	}
}

func TestMergeRoutesOverlapSplice(t *testing.T) {
	g := roadnet.NewGrid(2, 6, 100, 15)
	find := func(u, v roadnet.VertexID) roadnet.EdgeID {
		for i := range g.Segments {
			if g.Segments[i].From == u && g.Segments[i].To == v {
				return g.Segments[i].ID
			}
		}
		return roadnet.NoEdge
	}
	e01, e12, e23, e34 := find(0, 1), find(1, 2), find(2, 3), find(3, 4)
	// a ends with [e12 e23]; b begins with [e23 e34]: splice at e23 with no
	// duplicated or bridged edges.
	a := roadnet.Route{e01, e12, e23}
	b := roadnet.Route{e23, e34}
	merged, ok := mergeRoutes(g, a, b)
	if !ok {
		t.Fatal("merge failed")
	}
	if !merged.Equal(roadnet.Route{e01, e12, e23, e34}) {
		t.Fatalf("merged = %v", merged)
	}
	if !merged.Valid(g) {
		t.Fatal("merged route invalid")
	}
	// Disjoint routes fall back to a shortest-path bridge.
	c := roadnet.Route{find(4, 5)}
	bridged, ok := mergeRoutes(g, roadnet.Route{e01}, c)
	if !ok || !bridged.Valid(g) {
		t.Fatalf("bridged merge failed: %v ok=%v", bridged, ok)
	}
}

func TestFilterByTimeOfDay(t *testing.T) {
	v, refs := refsAt(
		8*3600,         // 08:00
		9*3600,         // 09:00
		20*3600,        // 20:00
		86400+7.5*3600, // next day 07:30 — wraps to the same window
		0.5*3600,       // 00:30
	)
	refs, halfPastMidnight := refs[:4], refs[4:]
	// Query at 08:30 with a 2 h window: keeps 08:00, 09:00 and the wrapped
	// 07:30; drops 20:00.
	kept := filterByTimeOfDay(v, refs, 8.5*3600, 2*3600)
	if len(kept) != 3 {
		t.Fatalf("kept %d refs, want 3", len(kept))
	}
	for _, r := range kept {
		if refPoints(v, r)[0].T == 20*3600 {
			t.Fatal("evening reference survived a morning filter")
		}
	}
	// Midnight wrap in the other direction: query at 23:30, ref at 00:30.
	wrap := filterByTimeOfDay(v, halfPastMidnight, 23.5*3600, 2*3600)
	if len(wrap) != 1 {
		t.Fatal("circular time distance not handled")
	}
	// window <= 0 keeps everything.
	if got := filterByTimeOfDay(v, refs, 0, 0); len(got) != len(refs) {
		t.Fatal("zero window should be a no-op")
	}
	// Empty references dropped.
	if got := filterByTimeOfDay(v, []hist.Reference{{}}, 0, 3600); len(got) != 0 {
		t.Fatal("empty reference kept")
	}
}

// pt is a tiny helper for planar points in tests.
func pt(x, y float64) geo.Point { return geo.Pt(x, y) }
