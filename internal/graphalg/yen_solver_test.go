package graphalg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// clonePaths copies a solver's result out of its arena.
func clonePaths(ps []Path) []Path {
	ps = slices.Clone(ps)
	for i := range ps {
		ps[i].Vertices = slices.Clone(ps[i].Vertices)
	}
	return ps
}

// weightFamilies are the arc-weight distributions the equivalence suite
// draws from: what decides which of two paths wins ranges from never a tie
// to always one.
var weightFamilies = []struct {
	name string
	w    func(*rand.Rand) float64
}{
	{"continuous", func(r *rand.Rand) float64 { return 1 + r.Float64()*10 }},
	{"small integers", func(r *rand.Rand) float64 { return float64(1 + r.Intn(4)) }}, // exact ties
	{"tenths", func(r *rand.Rand) float64 { return 0.1 * float64(1+r.Intn(30)) }},    // ties up to rounding
	{"ones", func(*rand.Rand) float64 { return 1 }},
}

// randomDigraph draws n ∈ [5, 65] vertices with out-degree ≤ 8; parallel
// duplicates every arc drawn with a second arc of another weight.
func randomDigraph(r *rand.Rand, w func(*rand.Rand) float64, parallel bool) *Graph {
	n := 5 + r.Intn(61)
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for j := r.Intn(9); j > 0; j-- {
			if v := r.Intn(n); v != u {
				g.AddArc(u, v, w(r))
				if parallel {
					g.AddArc(u, v, w(r)+0.5)
				}
			}
		}
	}
	return g
}

// gridGraph is a rows×cols four-neighbour grid of unit blocks; jitter > 0
// perturbs every arc's weight by up to that fraction.
func gridGraph(r *rand.Rand, rows, cols int, jitter float64) *Graph {
	g := NewGraph(rows * cols)
	w := func() float64 { return 1 + jitter*r.Float64() }
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			v := y*cols + x
			if x+1 < cols {
				g.AddArc(v, v+1, w())
				g.AddArc(v+1, v, w())
			}
			if y+1 < rows {
				g.AddArc(v, v+cols, w())
				g.AddArc(v+cols, v, w())
			}
		}
	}
	return g
}

// TestKShortestOracleEquivalence: the goal-directed solver returns exactly —
// vertex sequences and float weight bits — what the plain-Dijkstra Yen it
// replaced returns (yen_oracle_test.go), whatever decides between two paths:
// never a tie, exact ties, ties up to rounding, nothing but ties, parallel
// arcs. One solver is reused across graphs of growing and shrinking size, and
// per graph serves several destinations from one Reset the way TGI does.
func TestKShortestOracleEquivalence(t *testing.T) {
	var s KShortest
	cases := 0
	check := func(name string, g *Graph, src, dst, k int) {
		t.Helper()
		cases++
		want := oracleKShortestPaths(g, src, dst, k, nil)
		got := clonePaths(s.Paths(nil, src, dst, k))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d→%d k=%d\nsolver %v\noracle %v\ngraph %v", name, src, dst, k, got, want, g.Adj)
		}
		var fresh KShortest
		fresh.Reset(g)
		if f := fresh.Paths(nil, src, dst, k); !reflect.DeepEqual(clonePaths(f), want) {
			t.Fatalf("%s: %d→%d k=%d: fresh solver %v, oracle %v", name, src, dst, k, f, want)
		}
	}
	ks := []int{1, 2, 5, 9}
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 75; trial++ {
		for fi, fam := range weightFamilies {
			for _, parallel := range []bool{false, true} {
				if parallel && fi == 0 {
					continue // continuous weights never tie, parallel or not
				}
				g := randomDigraph(r, fam.w, parallel)
				name := fmt.Sprintf("%s parallel=%v trial %d", fam.name, parallel, trial)
				s.Reset(g)
				n := g.N()
				// TGI's access pattern: three sources × three destinations
				// on one Reset, source outer.
				var srcs, dsts [3]int
				for i := range srcs {
					srcs[i], dsts[i] = r.Intn(n), r.Intn(n)
				}
				for _, src := range srcs {
					for _, dst := range dsts {
						check(name, g, src, dst, ks[r.Intn(len(ks))])
					}
				}
				check(name+" src==dst", g, srcs[0], srcs[0], 5)
			}
		}
	}
	// Grids: with unit blocks every monotone staircase ties exactly; with
	// jitter they tie up to a few percent, far outside the drain slack.
	for trial := 0; trial < 12; trial++ {
		for _, jitter := range []float64{0, 0.05} {
			g := gridGraph(r, 7, 7, jitter)
			s.Reset(g)
			for q := 0; q < 8; q++ {
				check(fmt.Sprintf("grid jitter=%v trial %d", jitter, trial), g, r.Intn(49), r.Intn(49), ks[q%len(ks)])
			}
		}
	}
	// An unreachable destination, alone and between reachable ones.
	g := NewGraph(6)
	for v := 0; v < 4; v++ {
		g.AddArc(v, v+1, 1)
		g.AddArc(v+1, v, 2)
	}
	s.Reset(g)
	for _, dst := range []int{5, 4, 5, 0} {
		check("unreachable", g, 0, dst, 3)
	}
	check("from the isolated vertex", g, 5, 2, 3)
	if cases < 5000 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestKShortestZeroWeights pins the contract outside strictly positive
// weights: which of several exactly tied paths comes back is unspecified
// there, but the answer is still K distinct loopless paths whose weights
// equal, rank by rank, those of the full enumeration.
func TestKShortestZeroWeights(t *testing.T) {
	var s KShortest
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 5 + r.Intn(5)
		g := NewGraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && r.Float64() < 0.35 {
					g.AddArc(u, v, float64(r.Intn(3))) // a third of the arcs weigh nothing
				}
			}
		}
		want := enumeratePaths(g, 0, n-1)
		s.Reset(g)
		for _, k := range []int{1, 4, 100} {
			got := s.Paths(nil, 0, n-1, k)
			if len(got) != min(k, len(want)) {
				t.Fatalf("trial %d k=%d: %d paths, enumeration has %d", trial, k, len(got), len(want))
			}
			for i, p := range got {
				if p.Weight != want[i].Weight {
					t.Fatalf("trial %d k=%d rank %d: weight %v, enumeration %v", trial, k, i, p.Weight, want[i].Weight)
				}
				seen := map[int]bool{}
				for j, v := range p.Vertices {
					if seen[v] || (j > 0 && !g.HasArc(p.Vertices[j-1], v)) {
						t.Fatalf("trial %d: %v loops or leaves the graph", trial, p.Vertices)
					}
					seen[v] = true
				}
				for _, q := range got[:i] {
					if slices.Equal(q.Vertices, p.Vertices) {
						t.Fatalf("trial %d: %v returned twice", trial, p.Vertices)
					}
				}
			}
		}
	}
}

// TestKShortestBadInput: indices outside the graph, k ≤ 0 and a solver never
// Reset answer nil. The package-level function used to index past its arrays
// for a destination out of range.
func TestKShortestBadInput(t *testing.T) {
	g := lineGraph(4)
	var s KShortest
	if ps := s.Paths(nil, 0, 3, 2); ps != nil {
		t.Fatalf("Paths before Reset gave %v", ps)
	}
	s.Reset(g)
	for _, c := range [][3]int{{0, 4, 2}, {0, -1, 2}, {4, 0, 2}, {-1, 3, 2}, {0, 3, 0}, {0, 3, -1}} {
		if ps := s.Paths(nil, c[0], c[1], c[2]); ps != nil {
			t.Fatalf("Paths(%d, %d, %d) gave %v", c[0], c[1], c[2], ps)
		}
		if ps := KShortestPaths(g, c[0], c[1], c[2]); ps != nil {
			t.Fatalf("KShortestPaths(%d, %d, %d) gave %v", c[0], c[1], c[2], ps)
		}
	}
	if ps := s.Paths(nil, 0, 3, 2); len(ps) != 1 || ps[0].Weight != 3 {
		t.Fatalf("after the bad calls: %v", ps)
	}
}

// stopAtPoll runs f with a done channel that closes at the nth poll any
// search under f makes (n = 0: never), and returns how many polls f made.
func stopAtPoll(n int, f func(ctx context.Context)) int {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polls := 0
	stopHook = func() {
		if polls++; polls == n {
			cancel()
		}
	}
	defer func() { stopHook = nil }()
	f(ctx)
	return polls
}

// funnelGraph is a unit-block rows×cols grid whose every vertex also has an
// arc to one extra vertex, the sink (index rows·cols), weighing 1000 from the
// far corner and 1060–1100 from anywhere else. From vertex 0 every shortest
// path to the sink runs corner to corner, all monotone staircases tie, and a
// goal-directed search must settle the whole rectangle they span — several
// strides of heap pops — while the sink carries a tentative label, 1060 or
// more against a final 1000 + rows + cols − 2, from the first pop on.
func funnelGraph(r *rand.Rand, rows, cols int) *Graph {
	g := gridGraph(r, rows, cols, 0)
	sink := rows * cols
	g.Adj = append(g.Adj, nil)
	for v := 0; v < sink-1; v++ {
		g.AddArc(v, sink, 1060+float64(r.Intn(41)))
	}
	g.AddArc(sink-1, sink, 1000)
	return g
}

// TestCancelledSearchAnswersExactlyOrNothing stops every search of the
// package at each of its checkpoints in turn. Whatever it then returns is
// either the uncancelled answer (for K shortest paths: a prefix of it) or
// "nothing" — never a tentative label read as a distance, the finite wrong
// answer a stopped dijkstra used to leave behind for every reached but
// unsettled vertex — and the next uncancelled call is unaffected.
func TestCancelledSearchAnswersExactlyOrNothing(t *testing.T) {
	g := funnelGraph(rand.New(rand.NewSource(7)), 25, 26)
	n := g.N()
	o := &DijkstraOracle{G: g}
	inf := math.Inf(1)
	src, sink := 0, n-1
	final := AllDistances(g, src)

	// labels runs the package's Dijkstra from src (stopping when dst
	// settles; -1: never) under ctx and returns every label it left.
	labels := func(ctx context.Context, dst int) []float64 {
		s := getScratch(n)
		defer putScratch(s)
		dijkstra(s, g, src, dst, ctx.Done())
		return slices.Clone(s.dist)
	}

	t.Run("Dijkstra", func(t *testing.T) {
		polls := stopAtPoll(0, func(ctx context.Context) { labels(ctx, -1) })
		if polls < 2 {
			t.Fatalf("a full search polled %d times", polls)
		}
		unsettled := 0
		for i := 1; i <= polls; i++ {
			var row []float64
			stopAtPoll(i, func(ctx context.Context) { row = labels(ctx, -1) })
			for v, d := range row {
				if d != final[v] && d != inf {
					t.Fatalf("dijkstra stopped at poll %d: dist to %d = %v, want %v or +Inf", i, v, d, final[v])
				}
			}
			// Every destination: settled, reached, untouched at the stop.
			for dst := 0; dst < n; dst++ {
				want, _ := shortestPath(g, src, dst, nil)
				var d float64
				var p, q Path
				var okP, okQ bool
				stopAtPoll(i, func(ctx context.Context) {
					d = labels(ctx, dst)[dst]
					p, okP = o.PathToCtx(ctx, src, dst)
					q, okQ = shortestPath(g, src, dst, ctx.Done())
				})
				if d != final[dst] && d != inf {
					t.Fatalf("dijkstra to %d stopped at poll %d: %v, want %v or +Inf", dst, i, d, final[dst])
				}
				if d == inf {
					unsettled++
				}
				if okP && !reflect.DeepEqual(p, want) || okQ && !reflect.DeepEqual(q, want) {
					t.Fatalf("path to %d stopped at poll %d: PathToCtx %v %v, shortestPath %v %v, want %v or nothing", dst, i, p, okP, q, okQ, want)
				}
			}
		}
		if unsettled == 0 {
			t.Fatal("no stop left a destination unsettled: the checkpoints were not exercised")
		}
	})

	t.Run("KShortest", func(t *testing.T) {
		const k = 3
		var s KShortest
		s.Reset(g)
		want := clonePaths(s.Paths(nil, src, sink, k))
		if len(want) != k {
			t.Fatalf("%d paths, want %d", len(want), k)
		}
		var got []Path
		run := func(ctx context.Context) { got = s.Paths(ctx.Done(), src, sink, k) }
		s.Reset(g) // so the run counted builds the potential too
		polls := stopAtPoll(0, run)
		spurs := len(want[0].Vertices) + len(want[1].Vertices) - 2
		if polls < spurs+10 || !reflect.DeepEqual(clonePaths(got), want) {
			t.Fatalf("uncancelled under a live context: %d polls for %d spur searches, %v, want %v", polls, spurs, got, want)
		}
		lens := map[int]bool{}
		for i := 1; i <= polls; i++ {
			s.Reset(g)
			stopAtPoll(i, run)
			lens[len(got)] = true
			if len(got) > len(want) || len(got) > 0 && !reflect.DeepEqual(clonePaths(got), want[:len(got)]) {
				t.Fatalf("stopped at poll %d: %v is not a prefix of %v", i, got, want)
			}
			// No Reset in between: a stopped potential build must not have
			// been cached, nor a stopped search have left anything behind.
			if again := s.Paths(nil, src, sink, k); !reflect.DeepEqual(clonePaths(again), want) {
				t.Fatalf("after a stop at poll %d the same solver answers %v, a fresh one %v", i, again, want)
			}
		}
		for l := 0; l < k; l++ {
			if !lens[l] {
				t.Fatalf("no stop returned a prefix of length %d (saw %v)", l, lens)
			}
		}
	})
}
