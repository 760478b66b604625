package graphalg

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomGraph builds a connected-ish directed graph with continuous random
// weights. Continuous weights make shortest paths unique almost surely, so
// CH and Dijkstra must agree on the path itself, not just its weight.
func randomCHGraph(r *rand.Rand, n, m int) *Graph {
	g := NewGraph(n)
	// a random cycle keeps most pairs reachable
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		g.AddArc(perm[i], perm[(i+1)%n], 10+90*r.Float64())
	}
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		g.AddArc(u, v, 10+90*r.Float64())
	}
	return g
}

func checkCHAgainstDijkstra(t *testing.T, g *Graph, r *rand.Rand, pairs int) {
	t.Helper()
	ch := BuildCH(g)
	dij := &DijkstraOracle{G: g}
	n := g.N()
	for p := 0; p < pairs; p++ {
		s, d := r.Intn(n), r.Intn(n)
		wantD := dij.Dist(s, d)
		gotD := ch.Dist(s, d)
		if wantD != gotD && !(math.IsInf(wantD, 1) && math.IsInf(gotD, 1)) {
			t.Fatalf("Dist(%d,%d): ch=%v dijkstra=%v", s, d, gotD, wantD)
		}
		wantP, wantOK := dij.PathToCtx(context.Background(), s, d)
		gotP, gotOK := ch.PathToCtx(context.Background(), s, d)
		if wantOK != gotOK {
			t.Fatalf("PathTo(%d,%d): ok ch=%v dijkstra=%v", s, d, gotOK, wantOK)
		}
		if !wantOK {
			continue
		}
		if gotP.Weight != wantP.Weight {
			t.Fatalf("PathTo(%d,%d): weight ch=%v dijkstra=%v", s, d, gotP.Weight, wantP.Weight)
		}
		if len(gotP.Vertices) != len(wantP.Vertices) {
			t.Fatalf("PathTo(%d,%d): path ch=%v dijkstra=%v", s, d, gotP.Vertices, wantP.Vertices)
		}
		for i := range gotP.Vertices {
			if gotP.Vertices[i] != wantP.Vertices[i] {
				t.Fatalf("PathTo(%d,%d): path ch=%v dijkstra=%v", s, d, gotP.Vertices, wantP.Vertices)
			}
		}
	}
}

func TestCHMatchesDijkstraFixedSeeds(t *testing.T) {
	for seed := int64(1); seed <= 14; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(150)
		g := randomCHGraph(r, n, 3*n)
		checkCHAgainstDijkstra(t, g, r, 60)
	}
}

func TestCHMatchesDijkstraQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(60)
		g := randomCHGraph(r, n, 2*n)
		ch := BuildCH(g)
		dij := &DijkstraOracle{G: g}
		for p := 0; p < 20; p++ {
			s, d := r.Intn(n), r.Intn(n)
			if ch.Dist(s, d) != dij.Dist(s, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Equal integer weights create massive shortest-path ties. Distances must
// still match exactly (integer sums are exact in float64), returned paths
// must be optimal and valid, and two builds of the same graph must agree
// with each other (determinism).
func TestCHEqualWeightTies(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := 30 + r.Intn(40)
		g := NewGraph(n)
		for i := 0; i < n; i++ {
			g.AddArc(i, (i+1)%n, 1)
		}
		for i := 0; i < 4*n; i++ {
			g.AddArc(r.Intn(n), r.Intn(n), float64(1+r.Intn(3)))
		}
		ch1 := BuildCH(g)
		ch2 := BuildCH(g)
		dij := &DijkstraOracle{G: g}
		for p := 0; p < 40; p++ {
			s, d := r.Intn(n), r.Intn(n)
			want := dij.Dist(s, d)
			if got := ch1.Dist(s, d); got != want {
				t.Fatalf("tie graph Dist(%d,%d): ch=%v dijkstra=%v", s, d, got, want)
			}
			p1, ok1 := ch1.PathToCtx(context.Background(), s, d)
			p2, ok2 := ch2.PathToCtx(context.Background(), s, d)
			if !ok1 || !ok2 {
				t.Fatalf("tie graph PathTo(%d,%d): ok1=%v ok2=%v", s, d, ok1, ok2)
			}
			if p1.Weight != want {
				t.Fatalf("tie graph PathTo(%d,%d): weight %v want %v", s, d, p1.Weight, want)
			}
			if !validPathWeight(g, p1) {
				t.Fatalf("tie graph PathTo(%d,%d): invalid path %v", s, d, p1.Vertices)
			}
			if !slices.Equal(p1.Vertices, p2.Vertices) {
				t.Fatalf("tie graph PathTo(%d,%d) nondeterministic: %v vs %v", s, d, p1.Vertices, p2.Vertices)
			}
		}
	}
}

// validPathWeight reports whether p is a real walk in g whose arc weights
// (minimum over parallels) sum to no less than p.Weight.
func validPathWeight(g *Graph, p Path) bool {
	var sum float64
	for i := 1; i < len(p.Vertices); i++ {
		best := math.Inf(1)
		for _, a := range g.Adj[p.Vertices[i-1]] {
			if a.To == p.Vertices[i] && a.W < best {
				best = a.W
			}
		}
		if math.IsInf(best, 1) {
			return false
		}
		sum += best
	}
	return sum <= p.Weight
}

// TestCHTableMatchesPairQueries: every cell of DistanceTable equals the
// CH's point-to-point answer for its pair and the label a full Dijkstra
// assigns — duplicate sources and destinations, a -1 source and an
// out-of-range destination included — so the early-stopped rows, the
// exhaustive search and the oracle agree bit for bit.
func TestCHTableMatchesPairQueries(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		n := 30 + r.Intn(80)
		g := randomCHGraph(r, n, 3*n)
		ch := BuildCH(g)
		srcs := []int{r.Intn(n), r.Intn(n), r.Intn(n), -1}
		srcs = append(srcs, srcs[1]) // duplicate source
		dsts := []int{r.Intn(n), r.Intn(n), n + 5, r.Intn(n)}
		dsts = append(dsts, dsts[0]) // duplicate destination
		got := DistanceTable(g, srcs, dsts)
		for i := range srcs {
			for j := range dsts {
				if srcs[i] >= 0 && dsts[j] < n {
					if full := AllDistances(g, srcs[i])[dsts[j]]; full != got[i][j] {
						t.Fatalf("seed %d DistanceTable[%d][%d] = %v, full Dijkstra label %v",
							seed, i, j, got[i][j], full)
					}
				}
				if pair := ch.Dist(srcs[i], dsts[j]); pair != got[i][j] &&
					!(math.IsInf(pair, 1) && math.IsInf(got[i][j], 1)) {
					t.Fatalf("seed %d DistanceTable[%d][%d] (src %d dst %d) = %v, ch.Dist = %v",
						seed, i, j, srcs[i], dsts[j], got[i][j], pair)
				}
			}
		}
	}
	g := randomCHGraph(rand.New(rand.NewSource(9)), 10, 10)
	if tbl := DistanceTable(g, nil, []int{1}); len(tbl) != 0 {
		t.Fatalf("DistanceTable(nil, ...) = %v, want empty", tbl)
	}
	if tbl := DistanceTable(g, []int{1}, nil); len(tbl) != 1 || len(tbl[0]) != 0 {
		t.Fatalf("DistanceTable(..., nil) = %v, want one empty row", tbl)
	}
}

func TestCHDisconnected(t *testing.T) {
	g := NewGraph(6)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	g.AddArc(3, 4, 1)
	g.AddArc(4, 5, 1)
	ch := BuildCH(g)
	if d := ch.Dist(0, 5); !math.IsInf(d, 1) {
		t.Fatalf("Dist across components = %v, want +Inf", d)
	}
	if _, ok := ch.PathToCtx(context.Background(), 0, 5); ok {
		t.Fatal("PathTo across components reported ok")
	}
	if d := ch.Dist(0, 2); d != 2 {
		t.Fatalf("Dist(0,2) = %v, want 2", d)
	}
	if d := ch.Dist(2, 2); d != 0 {
		t.Fatalf("Dist(2,2) = %v, want 0", d)
	}
}

func TestCHCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomCHGraph(r, 200, 600)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch := BuildCH(g)
	if _, ok := ch.PathToCtx(ctx, 0, 150); ok {
		t.Fatal("PathToCtx cancelled reported ok")
	}
}

// The DijkstraOracle with a heuristic must agree with the plain one: A*
// with an admissible heuristic returns optimal paths.
func TestDijkstraOracleHeuristic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomCHGraph(r, 80, 240)
	plain := &DijkstraOracle{G: g}
	astar := &DijkstraOracle{G: g, Heur: func(dst int) func(int) float64 {
		return func(int) float64 { return 0 }
	}}
	for p := 0; p < 40; p++ {
		s, d := r.Intn(80), r.Intn(80)
		pp, ok1 := plain.PathToCtx(context.Background(), s, d)
		ap, ok2 := astar.PathToCtx(context.Background(), s, d)
		if ok1 != ok2 {
			t.Fatalf("PathTo(%d,%d) ok mismatch", s, d)
		}
		if ok1 && pp.Weight != ap.Weight {
			t.Fatalf("PathTo(%d,%d) weight mismatch: %v vs %v", s, d, pp.Weight, ap.Weight)
		}
	}
}

func TestCHStats(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomCHGraph(r, 100, 300)
	ch := BuildCH(g)
	st := ch.Stats()
	if st.Vertices != 100 {
		t.Fatalf("Vertices = %d", st.Vertices)
	}
	if st.OriginalArcs == 0 || st.UpArcs+st.DownArcs < st.OriginalArcs {
		t.Fatalf("arc accounting broken: %+v", st)
	}
	if st.Build <= 0 {
		t.Fatalf("Build duration = %v", st.Build)
	}
}
