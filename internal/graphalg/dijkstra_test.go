package graphalg

import (
	"math"
	"math/rand"
	"testing"
)

func lineGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n-1; i++ {
		g.AddArc(i, i+1, 1)
	}
	return g
}

func randomGraph(n int, arcsPerVertex int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for j := 0; j < arcsPerVertex; j++ {
			v := rng.Intn(n)
			if v != u {
				g.AddArc(u, v, 1+rng.Float64()*10)
			}
		}
	}
	return g
}

// bellmanFord is an independent shortest-distance oracle.
func bellmanFord(g *Graph, src int) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < g.N(); iter++ {
		changed := false
		for u, arcs := range g.Adj {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, a := range arcs {
				if nd := dist[u] + a.W; nd < dist[a.To] {
					dist[a.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(5)
	p, ok := shortestPath(g, 0, 4, nil)
	if !ok || p.Weight != 4 || len(p.Vertices) != 5 {
		t.Fatalf("line path = %+v ok=%v", p, ok)
	}
	if _, ok := shortestPath(g, 4, 0, nil); ok {
		t.Fatal("reverse path should be unreachable")
	}
	p, ok = shortestPath(g, 2, 2, nil)
	if !ok || p.Weight != 0 || len(p.Vertices) != 1 {
		t.Fatalf("self path = %+v ok=%v", p, ok)
	}
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(60, 3, seed)
		src := int(seed) % g.N()
		want := bellmanFord(g, src)
		got := AllDistances(g, src)
		for v := range want {
			if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
				t.Fatalf("seed %d: reachability mismatch at %d", seed, v)
			}
			if !math.IsInf(want[v], 1) && math.Abs(want[v]-got[v]) > 1e-9 {
				t.Fatalf("seed %d: dist[%d] = %v, want %v", seed, v, got[v], want[v])
			}
		}
	}
}

func TestShortestPathIsConnectedAndConsistent(t *testing.T) {
	g := randomGraph(80, 3, 99)
	for dst := 0; dst < g.N(); dst += 7 {
		p, ok := shortestPath(g, 0, dst, nil)
		if !ok {
			continue
		}
		if p.Vertices[0] != 0 || p.Vertices[len(p.Vertices)-1] != dst {
			t.Fatalf("endpoints wrong: %v", p.Vertices)
		}
		// Re-derive the weight by walking the arcs.
		var w float64
		for i := 1; i < len(p.Vertices); i++ {
			best := math.Inf(1)
			for _, a := range g.Adj[p.Vertices[i-1]] {
				if a.To == p.Vertices[i] && a.W < best {
					best = a.W
				}
			}
			if math.IsInf(best, 1) {
				t.Fatalf("path uses nonexistent arc %d->%d", p.Vertices[i-1], p.Vertices[i])
			}
			w += best
		}
		if math.Abs(w-p.Weight) > 1e-9 {
			t.Fatalf("weight mismatch: %v vs %v", w, p.Weight)
		}
	}
}

func TestBFSHops(t *testing.T) {
	g := lineGraph(6)
	var hs HopSearch
	hs.Run(nil, g, 0, -1)
	for v := 0; v < g.N(); v++ {
		if h := hs.Hops(v); h != v {
			t.Fatalf("hops[%d] = %d", v, h)
		}
	}
	hs.Run(nil, g, 0, 3)
	if hs.Hops(3) != 3 || hs.Hops(4) != -1 {
		t.Fatalf("limited hops: h(3) = %d, h(4) = %d", hs.Hops(3), hs.Hops(4))
	}
	hs.Run(nil, g, 5, -1)
	if hs.Hops(0) != -1 || hs.Hops(5) != 0 {
		t.Fatalf("rev hops: h(0) = %d, h(5) = %d", hs.Hops(0), hs.Hops(5))
	}
}

// TestHopSearchReuse: one HopSearch run again and again — stamped, never
// cleared — answers every run like a search filled from scratch: the hop
// count of each vertex within maxHops, -1 for the rest, and the reached
// list holding each reached vertex once, src first, by ascending hops.
func TestHopSearchReuse(t *testing.T) {
	g := randomGraph(60, 2, 9)
	rng := rand.New(rand.NewSource(3))
	var hs HopSearch
	for run := 0; run < 200; run++ {
		src, maxHops := rng.Intn(g.N()+1)-1, rng.Intn(6)-1
		want := make([]int, g.N())
		for i := range want {
			want[i] = -1
		}
		var queue []int
		if src >= 0 {
			want[src], queue = 0, []int{src}
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, a := range g.Adj[v] {
				if want[a.To] == -1 && (maxHops < 0 || want[v] < maxHops) {
					want[a.To] = want[v] + 1
					queue = append(queue, a.To)
				}
			}
		}
		reached := hs.Run(nil, g, src, maxHops)
		n := 0
		for v, h := range want {
			if hs.Hops(v) != h {
				t.Fatalf("run %d (src %d, maxHops %d): Hops(%d) = %d, want %d", run, src, maxHops, v, hs.Hops(v), h)
			}
			if h >= 0 {
				n++
			}
		}
		if len(reached) != n || (n > 0 && reached[0] != src) {
			t.Fatalf("run %d: reached %v, want %d vertices from %d", run, reached, n, src)
		}
		for i := 1; i < len(reached); i++ {
			if hs.Hops(reached[i]) < hs.Hops(reached[i-1]) {
				t.Fatalf("run %d: reached %v is not by ascending hops", run, reached)
			}
		}
	}
}

func TestGraphEditing(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 1)
	g.AddArc(0, 2, 2)
	g.AddArc(0, 1, 3) // parallel arc
	if !g.HasArc(0, 1) || g.HasArc(1, 0) {
		t.Fatal("HasArc wrong")
	}
	if !g.RemoveArc(0, 1) {
		t.Fatal("RemoveArc missed")
	}
	if g.HasArc(0, 1) {
		t.Fatal("RemoveArc left a parallel arc behind")
	}
	if g.ArcCount() != 1 {
		t.Fatalf("ArcCount = %d", g.ArcCount())
	}
	c := g.Clone()
	c.AddArc(1, 2, 1)
	if g.HasArc(1, 2) {
		t.Fatal("Clone is not deep")
	}
}

func TestDijkstraOutOfRangeSource(t *testing.T) {
	g := lineGraph(3)
	d := AllDistances(g, -1)
	for _, v := range d {
		if !math.IsInf(v, 1) {
			t.Fatal("negative source should reach nothing")
		}
	}
}
