package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graphalg"
	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/traj"
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
	sc := newPairScratch()
	sc.bridges.Reset(g)
	route, ok := projectPath(g, []int{0, 1}, edges, sc)
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
	if _, ok := projectPath(g, nil, edges, sc); ok {
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

// reduceTraverseGraphMaps is the reduction as it stood before its adjacency
// became CSR rows in scratch — one map per node, candidates in sorted key
// order, removed links deleted from the map — kept as the reference.
func reduceTraverseGraphMaps(tg *graphalg.Graph) {
	n := tg.N()
	w := make([]map[int]float64, n)
	for u := 0; u < n; u++ {
		w[u] = make(map[int]float64, len(tg.Adj[u]))
		for _, a := range tg.Adj[u] {
			if cur, ok := w[u][a.To]; !ok || a.W < cur {
				w[u][a.To] = a.W
			}
		}
	}
	const tol = 30.0
	for r := 0; r < n; r++ {
		var ks []int
		for k := range w[r] {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		for _, k := range ks {
			wrk := w[r][k]
			redundant := false
			for j, wrj := range w[r] {
				if j == k {
					continue
				}
				if wjk, ok := w[j][k]; ok && wrj+wjk <= wrk+tol {
					redundant = true
					break
				}
			}
			if redundant {
				tg.RemoveArc(r, k)
				delete(w[r], k)
			}
		}
	}
}

// TestReduceTraverseGraphMatchesMapOracle: on random digraphs with parallel
// arcs and weights tied exactly at the tolerance, on chains and a cascade
// where removing one link destroys the witness of another, and on graphs of
// the server's sizes built from a city grid, the scratch-backed reduction
// leaves exactly the arcs the map-based one does, in the same order, from a
// fresh and from a reused arena; a reduction stopped before it starts
// removes nothing.
func TestReduceTraverseGraphMatchesMapOracle(t *testing.T) {
	sc := newPairScratch()
	check := func(name string, tg *graphalg.Graph) {
		t.Helper()
		want, fresh := tg.Clone(), tg.Clone()
		reduceTraverseGraphMaps(want)
		reduceTraverseGraph(tg, nil, sc)
		reduceTraverseGraph(fresh, nil, newPairScratch())
		if !reflect.DeepEqual(tg.Adj, want.Adj) || !reflect.DeepEqual(fresh.Adj, want.Adj) {
			t.Fatalf("%s: reduced to\n%v\nfresh arena\n%v\nmap oracle\n%v", name, tg.Adj, fresh.Adj, want.Adj)
		}
	}

	// r→1 is made redundant by 2 (10+60 ≤ 40+30), and once it is gone
	// nothing vouches for r→3 any more (1 was its only witness: 40+50 ≤
	// 60+30). Judged in the other order both would go.
	chain := graphalg.NewGraph(4)
	chain.AddArc(0, 1, 40)
	chain.AddArc(0, 2, 10)
	chain.AddArc(0, 3, 60)
	chain.AddArc(2, 1, 60)
	chain.AddArc(1, 3, 50)
	check("chain", chain.Clone())
	reduceTraverseGraph(chain, nil, sc)
	if chain.HasArc(0, 1) || !chain.HasArc(0, 3) {
		t.Fatalf("chain: removing 0→1 must save 0→3, got %v", chain.Adj)
	}

	// A parallel arc lighter than the first one decides both roles: as the
	// link judged and as the leg of a detour. Ties sit exactly at tol.
	par := graphalg.NewGraph(3)
	par.AddArc(0, 2, 300)
	par.AddArc(0, 1, 100)
	par.AddArc(1, 2, 500)
	par.AddArc(1, 2, 130) // 100+130 = 200+30: redundant only by this arc, and only at ≤
	par.AddArc(0, 2, 200)
	check("parallel", par.Clone())
	reduceTraverseGraph(par, nil, sc)
	if par.HasArc(0, 2) {
		t.Fatalf("parallel: 0→2 is within tol of 0→1→2, got %v", par.Adj)
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(14)
		tg := graphalg.NewGraph(n)
		for arcs := rng.Intn(n * n); arcs > 0; arcs-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v { // the traverse graph has no self-links
				// Multiples of 10 m: sums land on the tolerance exactly, often.
				tg.AddArc(u, v, float64(10*(1+rng.Intn(12))))
			}
		}
		check(fmt.Sprintf("random %d", trial), tg)
	}

	// A cascade: 0→1 falls to the detour through 9, and from there on each
	// link 0→k is vouched for only by 0→k-1 (10 m less, plus a 10 m leg), so
	// the links alternate: 1, 3, 5, 7 go, 2, 4, 6, 8 stay. Every k ≥ 2 also
	// has an in-arc from 1 listed first, which the scan must pass over once
	// 0→1 is gone.
	cascade := graphalg.NewGraph(10)
	cascade.AddArc(0, 9, 5)
	cascade.AddArc(9, 1, 5)
	for k := 1; k <= 8; k++ {
		cascade.AddArc(0, k, float64(10*k))
		if k >= 2 {
			cascade.AddArc(1, k, 1)
			cascade.AddArc(k-1, k, 10)
		}
	}
	check("cascade", cascade.Clone())
	reduceTraverseGraph(cascade, nil, sc)
	for k := 1; k <= 8; k++ {
		if cascade.HasArc(0, k) != (k%2 == 0) {
			t.Fatalf("cascade: 0→%d kept = %v, want the even targets kept: %v", k, cascade.HasArc(0, k), cascade.Adj[0])
		}
	}

	// Graphs shaped like the server's: segments of a city grid linked to
	// their λ = 4 neighbourhoods and augmented, ~47 nodes and ~13 arcs a node
	// on average, up to 375 nodes, 38 % of the links redundant and one graph
	// in five with augmentation arcs out of row order. One arena reduces them
	// all, and the sizes first shrink from the largest to two nodes and then
	// grow back, so that offsets or rows left over from a larger graph would
	// show.
	g := roadnet.NewGrid(30, 30, 100, 15)
	sizes := []int{375, 120, 30, 6, 2, 48, 375}
	for len(sizes) < 60 {
		sizes = append(sizes, 8+int(rng.ExpFloat64()*36))
	}
	var nodes, arcs, kept, unordered int
	for i, n := range sizes {
		tg := gridTraverseGraph(g, rng, n)
		for _, row := range tg.Adj {
			if !sort.SliceIsSorted(row, func(a, b int) bool { return row[a].To < row[b].To }) {
				unordered++
				break
			}
		}
		nodes, arcs = nodes+n, arcs+tg.ArcCount()
		check(fmt.Sprintf("grid %d (%d nodes)", i, n), tg)
		kept += tg.ArcCount()
	}
	removed := 1 - float64(kept)/float64(arcs)
	if nodes < 40*len(sizes) || arcs < 10*nodes || removed < 0.3 || removed > 0.6 || unordered < len(sizes)/10 {
		t.Fatalf("grid graphs: %d nodes and %d arcs on average, %.0f%% removed, %d of %d with augmentation arcs out of order — no longer the server's shape",
			nodes/len(sizes), arcs/len(sizes), 100*removed, unordered, len(sizes))
	}

	// A done closed before the call leaves the graph untouched.
	stopped := make(chan struct{})
	close(stopped)
	tg := gridTraverseGraph(g, rng, 48)
	before := tg.Clone()
	reduceTraverseGraph(tg, stopped, sc)
	if !reflect.DeepEqual(tg.Adj, before.Adj) {
		t.Fatal("a reduction stopped before it began removed links")
	}
}

// gridTraverseGraph builds a traverse graph the way traverseGraph does over n
// segments of g, drawn from a window of consecutive segment ids (each kept
// with probability 0.6): links to the segments within λ = 4 hops, weighed by
// the gap plus the target's length and added by ascending target, then
// augmentStronglyConnected's arc pairs, which land out of order at the ends
// of their rows.
func gridTraverseGraph(g *roadnet.Graph, rng *rand.Rand, n int) *graphalg.Graph {
	sc := newPairScratch()
	edges, slot := make([]roadnet.EdgeID, 0, n), make(map[roadnet.EdgeID]int, n)
	for e := rng.Intn(g.NumSegments()); len(edges) < n; e = (e + 1) % g.NumSegments() {
		if rng.Float64() < 0.6 {
			slot[roadnet.EdgeID(e)] = len(edges)
			edges = append(edges, roadnet.EdgeID(e))
		}
	}
	tg := graphalg.NewGraph(n)
	for i, r := range edges {
		var links []int
		for _, s := range g.EdgeHopsFrom(context.Background(), &sc.hopSearch, r, 3) {
			if j, ok := slot[s]; ok && sc.hopSearch.Hops(s) > 0 {
				links = append(links, j)
			}
		}
		sort.Ints(links)
		rEnd := g.Vertices[g.Seg(r).To].Pt
		for _, j := range links {
			sSeg := g.Seg(edges[j])
			tg.AddArc(i, j, rEnd.Dist(g.Vertices[sSeg.From].Pt)+sSeg.Length)
		}
	}
	augmentStronglyConnected(tg, edges, g, nil, sc)
	return tg
}

// traverseGraphDigests pins, per world × GraphReduction, every path — vertex
// sequence and weight bits — that TGI's K-shortest-path stage obtains on the
// traverse graph of every pair of a fixed query mix, sources outer,
// destinations inner. The digests were recorded on this change's parent from
// the plain-Dijkstra Yen that graphalg/yen_oracle_test.go preserves (that
// package cannot build a traverse graph, so its own equivalence test drives
// the oracle with synthetic graphs; the real ones are pinned here). All four
// were re-recorded once when candidate edges got a total order: equidistant
// candidates now break ties by EdgeID, not by the old R-tree's leaf order,
// which reorders a traverse graph's source and destination edges.
var traverseGraphDigests = map[string]string{
	"191 true":  "902fde4c23ed5baa046fc7c9a42ea63e5ff7ef5fc96384e89feb2eaa2b95f364", // 251 calls, 1209 paths
	"191 false": "418c9c49acf0d6cad1ed8f554a0cc46ad02d2ad2fccc46cdf1007b4495d983fe", // 251 calls, 1227 paths
	"7 true":    "79a3ad953e0c035e1253883b8e65a5909481b5429f2738da8beaaba5aba24353", // 275 calls, 1312 paths
	"7 false":   "e1106501da564694597af9665100faae0cc4b1293e33f8f1c466a73cb49f91ef", // 275 calls, 1340 paths
}

// forEachPair hands f the pair context of every consecutive pair of q,
// assembled on x's arena the way pairStage assembles it.
func forEachPair(x exec, q *traj.Trajectory, f func(i int, pctx *pairContext)) {
	for i := 0; i+1 < q.Len(); i++ {
		qi, qj := q.Points[i], q.Points[i+1]
		refs := x.sc.search.Search(x.snap, qi, qj, hist.SearchParams{
			Phi: x.p.Phi, SpliceEps: x.p.SpliceEps, SpliceMinSimple: x.p.SpliceMinSimple,
		}, nil, x.done)
		f(i, x.buildPairContext(i, qi, qj, refs))
	}
}

// TestKShortestRealTraverseGraphs: on real traverse graphs, driven exactly as
// inferTGI drives it (one Reset per graph, every source against every
// destination), the arena's solver returns the paths recorded from the old
// Yen — and a fresh solver per call returns the same as the reused one.
func TestKShortestRealTraverseGraphs(t *testing.T) {
	for _, seed := range []int64{191, 7} {
		for _, red := range []bool{true, false} {
			key := fmt.Sprintf("%d %v", seed, red)
			got := goldenDigest(t, seed, 12, func(w *world, h io.Writer, q *traj.Trajectory) {
				p := w.p
				p.Method, p.GraphReduction = MethodTGI, red
				x := w.eng.newExec(t.Context(), p, w.eng.src.Current())
				x.sc = newPairScratch()
				sc := x.sc
				forEachPair(x, q, func(i int, pctx *pairContext) {
					fmt.Fprintf(h, "\nP%d", i)
					srcs, dsts := x.traverseGraph(pctx)
					sc.ksp.Reset(&sc.tg)
					for _, se := range srcs {
						for _, de := range dsts {
							s, d := int(sc.nodeSlot[se]), int(sc.nodeSlot[de])
							paths := sc.ksp.Paths(nil, s, d, p.K1)
							var fresh graphalg.KShortest
							fresh.Reset(&sc.tg)
							if f := fresh.Paths(nil, s, d, p.K1); !reflect.DeepEqual(f, paths) {
								t.Fatalf("%s pair %d %d→%d: reused solver %v, fresh solver %v", key, i, s, d, paths, f)
							}
							fmt.Fprintf(h, "\nC%d", len(paths))
							for _, pa := range paths {
								var b [8]byte
								binary.LittleEndian.PutUint64(b[:], math.Float64bits(pa.Weight))
								h.Write(b[:])
								for _, v := range pa.Vertices {
									binary.LittleEndian.PutUint64(b[:], uint64(v))
									h.Write(b[:])
								}
							}
						}
					}
				})
			})
			if got != traverseGraphDigests[key] {
				t.Errorf("%s: digest %s, want %s — K-shortest paths differ on a real traverse graph", key, got, traverseGraphDigests[key])
			}
		}
	}
}

// TestTGIProjectsPathsBeforeNextSearch extends the aliasing check of
// TestPublishedResultSurvivesScratchReuse to the solver's arena: a path
// returned by one Paths call is overwritten by the next, so inferTGI must
// have projected it by then. The reference consumes copies
// (graphalg.KShortestPaths) in the same order; holding a solver path across
// calls makes the two disagree.
func TestTGIProjectsPathsBeforeNextSearch(t *testing.T) {
	w := newWorld(t, 60, 987)
	queries := w.queries(t, 4)
	p := w.p
	p.Method = MethodTGI
	x := w.eng.newExec(t.Context(), p, w.eng.src.Current())
	x.sc = newPairScratch()
	sc := x.sc
	routes, calls := 0, 0
	for _, q := range queries[:4] {
		forEachPair(x, q, func(i int, pctx *pairContext) {
			got := fmt.Sprint(x.inferTGI(pctx))

			clear(sc.seen) // forget the routes inferTGI published
			sc.seen, sc.seenHash = sc.seen[:0], sc.seenHash[:0]
			srcs, dsts := x.traverseGraph(pctx)
			var want []LocalRoute
			for _, se := range srcs {
				for _, de := range dsts {
					calls++
					for _, path := range graphalg.KShortestPaths(&sc.tg, int(sc.nodeSlot[se]), int(sc.nodeSlot[de]), p.K1) {
						if buf, ok := projectPath(w.g, path.Vertices, sc.tgEdges, sc); ok {
							if route, seen := sc.routeSeen(buf); !seen {
								pop, refs := x.scoreRoute(route, pctx)
								want = append(want, LocalRoute{Route: route, Refs: refs, Popularity: pop})
							}
						}
					}
				}
			}
			want = capLocalRoutes(want, p.MaxLocalRoutes)
			routes += len(want)
			if got != fmt.Sprint(want) {
				t.Fatalf("pair %d: inferTGI published\n%s\nprojecting copies of the same paths gives\n%v", i, got, want)
			}
		})
	}
	if routes == 0 || calls < 2*len(queries[:4]) {
		t.Fatalf("%d routes from %d K-shortest-path calls: the queries no longer exercise the solver's reuse", routes, calls)
	}
}
