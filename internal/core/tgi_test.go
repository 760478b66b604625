package core

import (
	"testing"

	"repro/internal/graphalg"
	"repro/internal/roadnet"
)

// traverseFixture builds a grid road network and returns it with a list of
// edge ids usable as traverse-graph nodes.
func traverseFixture(t *testing.T) (*roadnet.Graph, []roadnet.EdgeID) {
	t.Helper()
	g := roadnet.NewGrid(3, 4, 100, 15)
	edges := make([]roadnet.EdgeID, 0, 6)
	for e := 0; e < 6; e++ {
		edges = append(edges, roadnet.EdgeID(e*3%g.NumSegments()))
	}
	return g, edges
}

func TestAugmentStronglyConnected(t *testing.T) {
	g, edges := traverseFixture(t)
	// Start from a completely disconnected conceptual graph.
	tg := graphalg.NewGraph(len(edges))
	if graphalg.IsStronglyConnected(tg) {
		t.Fatal("fixture should start disconnected")
	}
	augmentStronglyConnected(tg, edges, g, nil, newPairScratch())
	if !graphalg.IsStronglyConnected(tg) {
		t.Fatal("augmentation did not reach strong connectivity")
	}
	// Augmented links come in symmetric pairs.
	for u := 0; u < tg.N(); u++ {
		for _, a := range tg.Adj[u] {
			if !tg.HasArc(a.To, u) {
				t.Fatalf("augmented link %d->%d missing its reverse", u, a.To)
			}
		}
	}
}

func TestAugmentAlreadyConnectedNoop(t *testing.T) {
	g, edges := traverseFixture(t)
	tg := graphalg.NewGraph(len(edges))
	for i := 0; i < len(edges); i++ {
		tg.AddArc(i, (i+1)%len(edges), 1)
	}
	before := tg.ArcCount()
	augmentStronglyConnected(tg, edges, g, nil, newPairScratch())
	if tg.ArcCount() != before {
		t.Fatalf("augmentation added %d arcs to a connected graph", tg.ArcCount()-before)
	}
}

func TestReduceTraverseGraphRemovesRedundantOnly(t *testing.T) {
	// Path a->b->c with a redundant direct a->c whose weight composes
	// exactly, plus a genuinely shorter shortcut a->d that must survive.
	tg := graphalg.NewGraph(4)
	tg.AddArc(0, 1, 100) // a->b
	tg.AddArc(1, 2, 100) // b->c
	tg.AddArc(0, 2, 200) // a->c redundant (100+100)
	tg.AddArc(0, 3, 50)  // a->d unique
	reduceTraverseGraph(tg, nil, newPairScratch())
	if tg.HasArc(0, 2) {
		t.Fatal("redundant arc survived")
	}
	if !tg.HasArc(0, 1) || !tg.HasArc(1, 2) || !tg.HasArc(0, 3) {
		t.Fatal("reduction removed a needed arc")
	}
}

func TestReduceTraverseGraphPreservesDistances(t *testing.T) {
	// Random-ish small graph: all pairwise shortest distances must be
	// preserved within the reduction tolerance per removed hop.
	tg := graphalg.NewGraph(6)
	arcs := [][3]float64{
		{0, 1, 120}, {1, 2, 90}, {0, 2, 210}, {2, 3, 150}, {1, 3, 240},
		{3, 4, 80}, {2, 4, 230}, {4, 5, 60}, {3, 5, 140}, {0, 5, 700},
	}
	for _, a := range arcs {
		tg.AddArc(int(a[0]), int(a[1]), a[2])
	}
	before := make([][]float64, tg.N())
	for u := 0; u < tg.N(); u++ {
		before[u] = graphalg.AllDistances(tg, u)
	}
	reduceTraverseGraph(tg, nil, newPairScratch())
	for u := 0; u < tg.N(); u++ {
		after := graphalg.AllDistances(tg, u)
		for v := range after {
			// Each removed arc detours through intermediates whose composed
			// weight is within tol; allow tol per hop on the 6-node graph.
			if after[v] > before[u][v]+6*31 {
				t.Fatalf("distance %d->%d grew %v -> %v", u, v, before[u][v], after[v])
			}
			if after[v] < before[u][v]-1e-9 {
				t.Fatalf("distance %d->%d shrank", u, v)
			}
		}
	}
}

func TestProjectPathBridgesGaps(t *testing.T) {
	w := newWorld(t, 50, 151)
	g := w.g
	// Two far-apart edges: projection must produce a valid bridged route.
	edges := []roadnet.EdgeID{0, roadnet.EdgeID(g.NumSegments() / 2)}
	route, ok := projectPath(g, []int{0, 1}, edges, newPairScratch())
	if !ok {
		t.Skip("no path between the fixture edges in this seed")
	}
	if !route.Valid(g) {
		t.Fatalf("projected route invalid: %v", route)
	}
	if route[0] != edges[0] || route[len(route)-1] != edges[1] {
		t.Fatal("projected route endpoints wrong")
	}
	// Empty input.
	if _, ok := projectPath(g, nil, edges, newPairScratch()); ok {
		t.Fatal("empty path accepted")
	}
}

func TestQueryCandidatesWidening(t *testing.T) {
	w := newWorld(t, 50, 153)
	g := w.g
	// A point far from any road still gets candidates via widening.
	bb := g.BBox()
	far := bb.Max.Add(pt(3000, 3000))
	cands := w.exec().queryCandidates(far, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates for a far point")
	}
	if len(cands) > 3 {
		t.Fatalf("candidate cap exceeded: %d", len(cands))
	}
}
