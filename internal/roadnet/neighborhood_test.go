package roadnet

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graphalg"
)

// bruteHops computes edge hop distances by explicit breadth-first search
// over the segment-adjacency relation — the oracle for EdgeHops.
func bruteHops(g *Graph, from EdgeID) map[EdgeID]int {
	dist := map[EdgeID]int{from: 0}
	frontier := []EdgeID{from}
	for len(frontier) > 0 {
		var next []EdgeID
		for _, e := range frontier {
			for _, s := range g.Out(g.Seg(e).To) {
				if _, seen := dist[s]; !seen {
					dist[s] = dist[e] + 1
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	return dist
}

// TestEdgeHopsMatchesBruteForce cross-checks EdgeHops on random grids.
func TestEdgeHopsMatchesBruteForce(t *testing.T) {
	g := NewGrid(5, 5, 100, 15)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		from := EdgeID(rng.Intn(g.NumSegments()))
		want := bruteHops(g, from)
		got := g.EdgeHopsCtx(context.Background(), from, -1)
		for e := 0; e < g.NumSegments(); e++ {
			w, reachable := want[EdgeID(e)]
			if !reachable {
				if got[e] != -1 {
					t.Fatalf("edge %d: got %d, want unreachable", e, got[e])
				}
				continue
			}
			if got[e] != w {
				t.Fatalf("edge %d: got %d, want %d", e, got[e], w)
			}
		}
	}
}

// lambdaHood is N_λ(r) (Definition 8) read off the hop counts the way TGI
// builds its traverse-graph arcs: a search capped at λ−1 hops, then every
// segment s ≠ r with 0 < h(r, s) < λ, with its hop count.
func lambdaHood(g *Graph, r EdgeID, lambda int) map[EdgeID]int {
	out := make(map[EdgeID]int)
	var hs graphalg.HopSearch
	for _, s := range g.EdgeHopsFrom(context.Background(), &hs, r, lambda-1) {
		if h := hs.Hops(s); s != r && h > 0 && h < lambda {
			out[s] = h
		}
	}
	return out
}

// TestNeighborhoodDefinition: N_λ(r) contains exactly the edges with
// 0 < h(r,s) < λ, and grows monotonically with λ.
func TestNeighborhoodDefinition(t *testing.T) {
	g := NewGrid(4, 4, 100, 15)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		r := EdgeID(rng.Intn(g.NumSegments()))
		want := bruteHops(g, r)
		prevSize := 0
		for lambda := 1; lambda <= 5; lambda++ {
			n := lambdaHood(g, r, lambda)
			for s, h := range n {
				if s == r {
					t.Fatal("neighborhood contains the edge itself")
				}
				if wh := want[s]; wh != h || h >= lambda || h <= 0 {
					t.Fatalf("λ=%d: edge %d hop %d (brute %d)", lambda, s, h, wh)
				}
			}
			// Nothing with h < λ is missing.
			for s, h := range want {
				if s != r && h > 0 && h < lambda {
					if _, ok := n[s]; !ok {
						t.Fatalf("λ=%d: edge %d (h=%d) missing", lambda, s, h)
					}
				}
			}
			if len(n) < prevSize {
				t.Fatalf("λ=%d: neighborhood shrank", lambda)
			}
			prevSize = len(n)
		}
	}
}
