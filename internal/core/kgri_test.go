package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
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
