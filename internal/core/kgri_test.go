package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

// chainGrid returns a grid graph and a helper to find directed edges.
func chainGrid(t *testing.T) (*roadnet.Graph, func(u, v roadnet.VertexID) roadnet.EdgeID) {
	t.Helper()
	g := roadnet.NewGrid(4, 6, 100, 15)
	find := func(u, v roadnet.VertexID) roadnet.EdgeID {
		for i := range g.Segments {
			if g.Segments[i].From == u && g.Segments[i].To == v {
				return g.Segments[i].ID
			}
		}
		t.Fatalf("edge %d->%d not found", u, v)
		return roadnet.NoEdge
	}
	return g, find
}

// randomLocals builds random per-pair local route sets on the bottom row of
// the grid so concatenation always succeeds.
func randomLocals(t *testing.T, g *roadnet.Graph, find func(u, v roadnet.VertexID) roadnet.EdgeID, pairs, m int, rng *rand.Rand) [][]LocalRoute {
	t.Helper()
	locals := make([][]LocalRoute, pairs)
	for i := range locals {
		for j := 0; j < m; j++ {
			// Each local route is the single bottom-row edge i -> i+1 (so
			// all alternatives share geometry) but with random support.
			ids := make([]int, 1+rng.Intn(4))
			for k := range ids {
				ids[k] = rng.Intn(8)
			}
			locals[i] = append(locals[i], LocalRoute{
				Route:      roadnet.Route{find(roadnet.VertexID(i), roadnet.VertexID(i+1))},
				Refs:       refSet(ids...),
				Popularity: 0.1 + rng.Float64(),
			})
		}
	}
	return locals
}

// TestKGRIMatchesBruteForce is the correctness oracle: the dynamic program
// must return exactly the brute-force top-K scores.
func TestKGRIMatchesBruteForce(t *testing.T) {
	g, find := chainGrid(t)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := 2 + rng.Intn(4) // up to 5 pairs on the 6-wide grid
		if pairs > 5 {
			pairs = 5
		}
		m := 1 + rng.Intn(4)
		locals := randomLocals(t, g, find, pairs, m, rng)
		for _, k := range []int{1, 3, 7} {
			got := KGRI(g, locals, k)
			want := BruteForceGlobalRoutes(g, locals, k)
			if len(got) != len(want) {
				t.Fatalf("seed %d k=%d: %d routes vs %d", seed, k, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Score-want[i].Score) > 1e-12*math.Max(1, want[i].Score) {
					t.Fatalf("seed %d k=%d rank %d: score %v, want %v",
						seed, k, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

// mergeRoutes is the pairwise join materialize and Session.provisionalTail
// folded before joinParts: it copies the whole accumulated route and
// re-deduplicates it at every join. Kept as joinParts' oracle.
func mergeRoutes(g *roadnet.Graph, a, b roadnet.Route) (roadnet.Route, bool) {
	if len(a) == 0 {
		return b, true
	}
	if len(b) == 0 {
		return a, true
	}
	const window = 8
	loA := len(a) - window
	if loA < 0 {
		loA = 0
	}
	hiB := window
	if hiB > len(b) {
		hiB = len(b)
	}
	for i := len(a) - 1; i >= loA; i-- {
		for j := 0; j < hiB; j++ {
			if a[i] == b[j] {
				merged := append(append(roadnet.Route{}, a[:i]...), b[j:]...)
				return merged.Dedup(), true
			}
		}
	}
	return a.Concat(g, b)
}

// mergeFold folds mergeRoutes over parts as materialize did: ok is false
// when a join fails, and route is then what the joins before it built.
func mergeFold(g *roadnet.Graph, parts []roadnet.Route) (route roadnet.Route, ok bool) {
	for _, b := range parts {
		joined, jok := mergeRoutes(g, route, b)
		if !jok {
			return route, false
		}
		route = joined
	}
	return route, true
}

// seamLocals draws pairs local route sets of m routes each that exercise
// joinParts' seams: routes over a pool of five segments, so overlaps fall
// anywhere; routes opening with a repeated segment; empty routes; and
// routes that repeat a segment of the previous pair's first route at
// distance 8 or 9 from its end, behind 7 or 8 other segments — both sides
// of the edges of the 8-segment overlap windows.
func seamLocals(g *roadnet.Graph, rng *rand.Rand, pairs, m int) [][]LocalRoute {
	pool := make([]roadnet.EdgeID, 5)
	for i := range pool {
		pool[i] = roadnet.EdgeID(rng.Intn(g.NumSegments()))
	}
	// fresh draws segments outside the pool, so that they overlap nothing.
	fresh := func() roadnet.EdgeID {
		for {
			e := roadnet.EdgeID(rng.Intn(g.NumSegments()))
			if !slices.Contains(pool, e) {
				return e
			}
		}
	}
	locals := make([][]LocalRoute, pairs)
	for i := range locals {
		for j := 0; j < m; j++ {
			var r roadnet.Route
			switch kind := rng.Intn(5); {
			case kind == 0: // empty
			case kind == 1 && i > 0 && len(locals[i-1][0].Route) >= 9: // at a window edge
				a := locals[i-1][0].Route
				for n := 7 + rng.Intn(2); n > 0; n-- {
					r = append(r, fresh())
				}
				r = append(r, a[len(a)-8-rng.Intn(2)])
				for n := rng.Intn(4); n > 0; n-- {
					r = append(r, fresh())
				}
			default:
				for n := rng.Intn(14); n > 0; n-- {
					if rng.Intn(3) == 0 {
						r = append(r, pool[rng.Intn(len(pool))])
					} else {
						r = append(r, fresh())
					}
				}
				if len(r) > 0 && rng.Intn(3) == 0 { // open with repeats
					r = append(roadnet.Route{r[0], r[0]}, r...)
				}
			}
			locals[i] = append(locals[i], LocalRoute{Route: r, Refs: refSet(rng.Intn(4), rng.Intn(4)), Popularity: 0.1 + rng.Float64()})
		}
	}
	return locals
}

// cloneLocals deep-copies locals, so that a write into the original's routes
// shows against the copy.
func cloneLocals(locals [][]LocalRoute) [][]LocalRoute {
	out := make([][]LocalRoute, len(locals))
	for i, set := range locals {
		out[i] = slices.Clone(set)
		for j := range set {
			out[i][j].Route, out[i][j].Refs = slices.Clone(set[j].Route), slices.Clone(set[j].Refs)
		}
	}
	return out
}

// TestKGRIMaterializesLikeMergeFold: on local routes that open with
// repeated segments, are empty, or overlap at the edges of the 8-segment
// window, every route KGRI and the brute force return is the mergeRoutes
// fold of its parts, materialize drops exactly the candidates the fold
// does, and no local route is written.
func TestKGRIMaterializesLikeMergeFold(t *testing.T) {
	g, _ := chainGrid(t)
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		locals := seamLocals(g, rng, 1+rng.Intn(5), 1+rng.Intn(3))
		before := cloneLocals(locals)
		for _, k := range []int{1, 4} {
			po := newPosterior(k, false)
			for _, set := range locals {
				po.push(set)
			}
			ranked := po.rank()
			kept := 0
			for _, r := range ranked {
				parts := make([]roadnet.Route, len(r.Parts))
				for i, j := range r.Parts {
					parts[i] = locals[i][j].Route
				}
				if route, ok := mergeFold(g, parts); ok && len(route) > 0 {
					kept++
				}
			}
			kgri, bf := KGRI(g, locals, k), BruteForceGlobalRoutes(g, locals, k)
			if len(kgri) != kept {
				t.Fatalf("seed %d k=%d: KGRI kept %d routes, the fold %d", seed, k, len(kgri), kept)
			}
			for _, rs := range [][]GlobalRoute{kgri, bf} {
				for _, r := range rs {
					parts := make([]roadnet.Route, len(r.Parts))
					for i, j := range r.Parts {
						parts[i] = locals[i][j].Route
					}
					if want, _ := mergeFold(g, parts); !r.Route.Equal(want) {
						t.Fatalf("seed %d k=%d parts %v: materialized %v, the fold %v", seed, k, r.Parts, r.Route, want)
					}
				}
			}
		}
		if !reflect.DeepEqual(locals, before) {
			t.Fatalf("seed %d: materializing wrote into the local routes", seed)
		}
	}
}

// joinRoutes is joinParts over routes, one local route a pair.
func joinRoutes(g *roadnet.Graph, routes ...roadnet.Route) (roadnet.Route, bool) {
	locals := make([][]LocalRoute, len(routes))
	for i, r := range routes {
		locals[i] = []LocalRoute{{Route: r}}
	}
	return joinParts(g, locals, make([]int, len(routes)))
}

// TestJoinPartsLeavesPartsAlone: joining never writes into a part, also
// when the part has spare capacity a careless append would reuse, and the
// joined route shares no storage with its parts.
func TestJoinPartsLeavesPartsAlone(t *testing.T) {
	g := roadnet.NewGrid(2, 6, 100, 15)
	first := make(roadnet.Route, 2, 8)
	first[0], first[1] = 0, 1
	spare := first[:8]
	for i := 2; i < 8; i++ {
		spare[i] = 99
	}
	route, ok := joinRoutes(g, first, roadnet.Route{1, 2, 3}, roadnet.Route{3, 4})
	if !ok {
		t.Fatal("join failed")
	}
	if !slices.Equal(first, roadnet.Route{0, 1}) || !slices.Equal(spare[2:], roadnet.Route{99, 99, 99, 99, 99, 99}) {
		t.Fatalf("a join wrote into its part: %v", spare)
	}
	if &route[0] == &first[0] {
		t.Fatal("the route aliases its first part")
	}
}

func TestKGRIScoresSortedAndComputedRight(t *testing.T) {
	g, find := chainGrid(t)
	rng := rand.New(rand.NewSource(99))
	locals := randomLocals(t, g, find, 4, 3, rng)
	routes := KGRI(g, locals, 5)
	if len(routes) == 0 {
		t.Fatal("no routes")
	}
	last := math.Inf(1)
	for _, r := range routes {
		if r.Score > last+1e-15 {
			t.Fatalf("scores not sorted: %v after %v", r.Score, last)
		}
		last = r.Score
		// Recompute the score from the parts.
		s := 1.0
		for i, j := range r.Parts {
			s *= locals[i][j].Popularity
			if i > 0 {
				s *= jaccardConf(locals[i-1][r.Parts[i-1]].Refs, locals[i][j].Refs)
			}
		}
		if math.Abs(s-r.Score) > 1e-12*math.Max(1, s) {
			t.Fatalf("score mismatch: %v vs recomputed %v", r.Score, s)
		}
		if !r.Route.Valid(g) {
			t.Fatalf("global route invalid: %v", r.Route)
		}
	}
}

func TestKGRIDegenerate(t *testing.T) {
	g, find := chainGrid(t)
	if got := KGRI(g, nil, 3); got != nil {
		t.Fatal("empty locals should give nil")
	}
	locals := [][]LocalRoute{{}, {{Route: roadnet.Route{find(0, 1)}, Popularity: 1}}}
	if got := KGRI(g, locals, 3); got != nil {
		t.Fatal("pair without local routes should give nil")
	}
	one := [][]LocalRoute{{{Route: roadnet.Route{find(0, 1)}, Refs: refSet(1), Popularity: 2}}}
	got := KGRI(g, one, 5)
	if len(got) != 1 || got[0].Score != 2 {
		t.Fatalf("single pair: %+v", got)
	}
	if got := KGRI(g, one, 0); got != nil {
		t.Fatal("k=0 should give nil")
	}
}

// TestKGRIBridgesGaps: consecutive local routes whose boundary edges differ
// are connected by a shortest-path bridge (§III-C.1: "we can always use
// shortest path to bridge this gap").
func TestKGRIBridgesGaps(t *testing.T) {
	g, find := chainGrid(t)
	locals := [][]LocalRoute{
		{{Route: roadnet.Route{find(0, 1)}, Refs: refSet(1), Popularity: 1}},
		// Starts two vertices later: a gap over vertex 1->2.
		{{Route: roadnet.Route{find(2, 3)}, Refs: refSet(1), Popularity: 1}},
	}
	routes := KGRI(g, locals, 1)
	if len(routes) != 1 {
		t.Fatalf("routes = %d", len(routes))
	}
	r := routes[0].Route
	if !r.Valid(g) {
		t.Fatalf("bridged route invalid: %v", r)
	}
	if r.Start(g) != 0 || r.End(g) != 3 {
		t.Fatalf("bridged endpoints: %d -> %d", r.Start(g), r.End(g))
	}
	if len(r) != 3 {
		t.Fatalf("expected 3 edges after bridging, got %v", r)
	}
}

// synthColumn draws one pair's m local routes for driving a posterior
// directly: popularity and references come from small sets, so equal scores
// — and with them the tie-break walk — are common. Routes stay empty; no
// test here materializes them.
func synthColumn(rng *rand.Rand, m int) []LocalRoute {
	col := make([]LocalRoute, m)
	for j := range col {
		ids := make([]int, 1+rng.Intn(3))
		for x := range ids {
			ids[x] = rng.Intn(6)
		}
		col[j] = LocalRoute{Refs: refSet(ids...), Popularity: float64(1 + rng.Intn(3))}
	}
	return col
}

// firmPrefixOracle is the firm prefix by definition: the longest common
// prefix of the local-route indices of every live partial.
func firmPrefixOracle(parts [][]int) int {
	if len(parts) == 0 {
		return 0
	}
	n := len(parts[0])
	for _, p := range parts[1:] {
		n = min(n, len(p))
		for t := 0; t < n; t++ {
			if p[t] != parts[0][t] {
				n = t
				break
			}
		}
	}
	return n
}

// liveParts materializes the parts of every partial in the posterior's
// last column (none before a session's first pair).
func liveParts(po *posterior) [][]int {
	c := len(po.cols)
	if c == 0 {
		return nil
	}
	out := make([][]int, len(po.cols[c-1]))
	for i := range out {
		out[i] = po.path(nil, int32(i), c)
	}
	return out
}

// TestKGRIFirmMatchesPrefixOracle: the posterior's firmness (the back-
// pointers' convergence column) equals the longest common prefix of every
// live partial's materialized parts — after every push of synthetic,
// tie-heavy posteriors on fixed seeds, and for every SessionUpdate of one
// long session stitched from 15 km queries on a world shaped like
// eval.FullConfig (22×22 city, 10 hotspots, 1,500 trips, seed 7).
func TestKGRIFirmMatchesPrefixOracle(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		po := newPosterior(int(seed%6), false)
		m := 1 + rng.Intn(5)
		for c := 0; c < 60; c++ {
			po.push(synthColumn(rng, m))
			if got, want := po.firm(), firmPrefixOracle(liveParts(po)); got != want {
				t.Fatalf("seed %d column %d: firm %d, prefix oracle %d", seed, c, got, want)
			}
		}
	}

	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols, ccfg.Hotspots = 22, 22, 10
	city := sim.GenerateCity(ccfg, 7)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips, fcfg.Seed = 1500, 7
	ds := sim.BuildDataset(city, fcfg)
	eng := NewEngine(hist.NewArchive(city.Graph, ds.Archive), DefaultParams())
	s := eng.NewSession(DefaultParams(), SessionConfig{})
	defer s.Close()
	rng := rand.New(rand.NewSource(318))
	t0, pushed := 0.0, 0
	for q := 0; q < 8; q++ {
		qc, ok := ds.GenQueryAt(t0, 15000, 180, 15, fcfg, rng)
		if !ok {
			continue
		}
		for _, pt := range qc.Query.Points {
			upd, err := s.Push(context.Background(), pt)
			if err != nil {
				t.Fatalf("push %d: %v", pushed, err)
			}
			if want := firmPrefixOracle(liveParts(s.post)); upd.FirmPairs != want {
				t.Fatalf("push %d: FirmPairs %d, prefix oracle %d", pushed, upd.FirmPairs, want)
			}
			t0, pushed = pt.T+180, pushed+1
		}
	}
	if pushed < 40 {
		t.Fatalf("stitched session has only %d points", pushed)
	}
}

// TestPosteriorPushDoesNotGrow: a push — one DP column plus the firmness
// walk — allocates as much late in a trip as early on. Over 800 synthetic
// columns (m=10, K=5), pushes 700–799 may allocate at most twice the bytes
// of pushes 0–99. Each window is read three times on fresh posteriors and
// the least reading kept, so an allocation elsewhere in the process cannot
// fail the test.
func TestPosteriorPushDoesNotGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cols := make([][]LocalRoute, 800)
	for c := range cols {
		cols[c] = synthColumn(rng, 10)
	}
	window := func(lo, hi int) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			po := newPosterior(5, false)
			for _, col := range cols[:lo] {
				po.push(col)
				po.firm()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, col := range cols[lo:hi] {
				po.push(col)
				po.firm()
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	early, late := window(0, 100), window(700, 800)
	t.Logf("bytes per push: %d over pushes 0-99, %d over pushes 700-799", early/100, late/100)
	if late > 2*early {
		t.Fatalf("pushes 700-799 allocate %d B, more than twice the %d B of pushes 0-99", late, early)
	}
}

// TestPosteriorSelectionMatchesSortedPrefix: each group of a pushed column
// is the prefix of its candidates fully sorted by cmpNodes, on columns whose
// popularities and supports are drawn from so few values that equal scores
// abound and the order rests on the back-pointer walk and then j.
func TestPosteriorSelectionMatchesSortedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{1, 2, 5, 9} {
		po, ties := newPosterior(k, false), 0
		for c := 0; c < 40; c++ {
			cur := synthColumn(rng, 1+rng.Intn(7))
			if c == 0 {
				po.push(cur)
				continue
			}
			last, prev := po.cols[c-1], po.prev
			po.push(cur)
			var want []node
			for j, lr := range cur {
				var cands []node
				for pi, p := range last {
					cands = append(cands, node{score: p.score * jaccardConf(prev[p.j].Refs, lr.Refs) * lr.Popularity, parent: int32(pi), j: int32(j)})
				}
				slices.SortFunc(cands, func(a, b node) int { return po.cmpNodes(c, a, b) })
				for i := 1; i < min(k, len(cands)); i++ {
					if cands[i].score == cands[i-1].score {
						ties++
					}
				}
				want = append(want, cands[:min(k, len(cands))]...)
			}
			if !slices.Equal(po.cols[c], want) {
				t.Fatalf("K=%d column %d:\n got %+v\nwant %+v", k, c, po.cols[c], want)
			}
		}
		if k > 1 && ties == 0 {
			t.Fatalf("K=%d: no kept candidates tied on score; the tie-break went untested", k)
		}
	}
}

// TestPosteriorPushWorkBounded counts the comparisons a push makes — work,
// not time. Each candidate is compared with at most K kept ones, so a push
// makes at most len(cur)·len(last)·K comparisons (a sort of the m·K
// candidates would make ~m·K·log₂(m·K) per group), and pushes 700–799 make
// no more than pushes 0–99 do, give or take the data: within 1.25 times.
func TestPosteriorPushWorkBounded(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(5))
	po := newPosterior(k, false)
	var early, late int
	for c := range 800 {
		cur := synthColumn(rng, 10)
		last, before := len(po.cols), po.compares
		if last > 0 {
			last = len(po.cols[last-1])
		}
		po.push(cur)
		po.firm()
		n := po.compares - before
		if bound := len(cur) * last * k; n > bound {
			t.Fatalf("push %d: %d comparisons, more than len(cur)·len(last)·K = %d", c, n, bound)
		}
		switch {
		case c < 100:
			early += n
		case c >= 700:
			late += n
		}
	}
	t.Logf("comparisons per push: %d over pushes 0-99, %d over pushes 700-799", early/100, late/100)
	if early == 0 || 4*late > 5*early {
		t.Fatalf("pushes 700-799 make %d comparisons, pushes 0-99 %d", late, early)
	}
}

func BenchmarkKGRI(b *testing.B) {
	g := roadnet.NewGrid(2, 12, 100, 15)
	find := func(u, v roadnet.VertexID) roadnet.EdgeID {
		for i := range g.Segments {
			if g.Segments[i].From == u && g.Segments[i].To == v {
				return g.Segments[i].ID
			}
		}
		return roadnet.NoEdge
	}
	rng := rand.New(rand.NewSource(1))
	locals := make([][]LocalRoute, 10)
	for i := range locals {
		for j := 0; j < 6; j++ {
			ids := make([]int, 1+rng.Intn(4))
			for k := range ids {
				ids[k] = rng.Intn(8)
			}
			locals[i] = append(locals[i], LocalRoute{
				Route:      roadnet.Route{find(roadnet.VertexID(i), roadnet.VertexID(i+1))},
				Refs:       refSet(ids...),
				Popularity: 0.1 + rng.Float64(),
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KGRI(g, locals, 5)
	}
}
