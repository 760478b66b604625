package graphalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestAStarMatchesDijkstra: with any admissible heuristic A* must return
// the same distance as Dijkstra; with h≡0 also the same searched space.
func TestAStarMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(80, 3, seed)
		zero := func(int) float64 { return 0 }
		for dst := 0; dst < g.N(); dst += 11 {
			want, okW := shortestPath(g, 0, dst, nil)
			got, okG := aStar(g, 0, dst, zero, nil)
			if okW != okG {
				t.Fatalf("seed %d dst %d: reachability mismatch", seed, dst)
			}
			if okW && math.Abs(want.Weight-got.Weight) > 1e-9 {
				t.Fatalf("seed %d dst %d: %v vs %v", seed, dst, got.Weight, want.Weight)
			}
		}
	}
}

// TestAStarWithGridHeuristic: on a grid with unit weights, Manhattan-
// style lower bounds keep A* exact.
func TestAStarWithGridHeuristic(t *testing.T) {
	const w, hgt = 20, 20
	g := NewGraph(w * hgt)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < hgt; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddArc(id(x, y), id(x+1, y), 1)
				g.AddArc(id(x+1, y), id(x, y), 1)
			}
			if y+1 < hgt {
				g.AddArc(id(x, y), id(x, y+1), 1)
				g.AddArc(id(x, y+1), id(x, y), 1)
			}
		}
	}
	dst := id(w-1, hgt-1)
	h := func(v int) float64 {
		x, y := v%w, v/w
		return math.Abs(float64(x-(w-1))) + math.Abs(float64(y-(hgt-1)))
	}
	p, ok := aStar(g, id(0, 0), dst, h, nil)
	if !ok || p.Weight != float64(w-1+hgt-1) {
		t.Fatalf("grid A*: %v ok=%v", p.Weight, ok)
	}
	// Path is valid.
	for i := 1; i < len(p.Vertices); i++ {
		if !g.HasArc(p.Vertices[i-1], p.Vertices[i]) {
			t.Fatal("A* path uses missing arc")
		}
	}
}

func TestAStarDegenerate(t *testing.T) {
	g := lineGraph(3)
	zero := func(int) float64 { return 0 }
	if _, ok := aStar(g, -1, 2, zero, nil); ok {
		t.Fatal("negative src accepted")
	}
	if _, ok := aStar(g, 0, 99, zero, nil); ok {
		t.Fatal("out-of-range dst accepted")
	}
	if _, ok := aStar(g, 2, 0, zero, nil); ok {
		t.Fatal("unreachable dst found")
	}
	p, ok := aStar(g, 1, 1, zero, nil)
	if !ok || p.Weight != 0 || len(p.Vertices) != 1 {
		t.Fatalf("self path: %+v ok=%v", p, ok)
	}
}

func BenchmarkAStarVsDijkstra(b *testing.B) {
	const w, hgt = 60, 60
	g := NewGraph(w * hgt)
	id := func(x, y int) int { return y*w + x }
	rng := rand.New(rand.NewSource(1))
	for y := 0; y < hgt; y++ {
		for x := 0; x < w; x++ {
			wgt := 1 + rng.Float64()
			if x+1 < w {
				g.AddArc(id(x, y), id(x+1, y), wgt)
				g.AddArc(id(x+1, y), id(x, y), wgt)
			}
			if y+1 < hgt {
				g.AddArc(id(x, y), id(x, y+1), wgt)
				g.AddArc(id(x, y+1), id(x, y), wgt)
			}
		}
	}
	dst := id(w-1, hgt-1)
	h := func(v int) float64 {
		x, y := v%w, v/w
		return math.Abs(float64(x-(w-1))) + math.Abs(float64(y-(hgt-1)))
	}
	b.Run("astar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aStar(g, 0, dst, h, nil)
		}
	})
	b.Run("dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shortestPath(g, 0, dst, nil)
		}
	})
}
