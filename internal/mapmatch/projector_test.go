package mapmatch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

// tableRows plays the archive match tables: a stored row — exactly
// CandidateEdges(pts[i], eps), in order — for every table point but the first
// and last (the query points), which always search.
type tableRows struct {
	g   *roadnet.Graph
	pts []geo.Point
	eps float64
}

func (r tableRows) CandidateRow(i int, dst []roadnet.EdgeID) []roadnet.EdgeID {
	if i == 0 || i == len(r.pts)-1 {
		return dst
	}
	for _, c := range r.g.CandidateEdges(r.pts[i], r.eps) {
		dst = append(dst, c.Edge)
	}
	return dst
}

// checkBatch projects batch, in order, through the float-keyed oracle (one
// per batch, as NNI used it), through reused (Reset once, then resuming trace
// to trace) and through a fresh projector per trace, and demands the same
// route and the same error from all three for every trace.
func checkBatch(t *testing.T, name string, g *roadnet.Graph, prm Params, pts []geo.Point, rows RowSource, reused *Projector, batch [][]int) {
	t.Helper()
	ctx := context.Background()
	oracle := newOracleProjector(g, prm)
	resetProjector(reused, g, prm, pts, rows)
	for n, seq := range batch {
		seqPts := make([]geo.Point, len(seq))
		for i, k := range seq {
			seqPts[i] = pts[k]
		}
		want, wantErr := oracle.Project(ctx, seqPts)
		got, err := reused.Project(ctx, seq)
		if err != wantErr || !got.Equal(want) {
			t.Fatalf("%s: trace %d %v: reused projector gave %v, %v; oracle %v, %v", name, n, seq, got, err, want, wantErr)
		}
		var fresh Projector
		resetProjector(&fresh, g, prm, pts, rows)
		if got, err := fresh.Project(ctx, seq); err != wantErr || !got.Equal(want) {
			t.Fatalf("%s: trace %d %v: fresh projector gave %v, %v; oracle %v, %v", name, n, seq, got, err, want, wantErr)
		}
	}
}

// trieBatch enumerates up to limit source→sink traces over pts (source first,
// sink last) the way NNI's recursion does: depth first over each point's k
// nearest points that lie closer to the sink, nearest-to-sink first, straight
// to the sink once it is among them. Consecutive traces therefore share
// prefixes, which is the input shape the projector's resume is built for.
func trieBatch(pts []geo.Point, k, limit int) [][]int {
	sink := len(pts) - 1
	dest := pts[sink]
	succ := func(node int) []int {
		var near []int
		for c := 1; c <= sink; c++ {
			if c != node && pts[c].Dist(dest) < pts[node].Dist(dest) {
				near = append(near, c)
			}
		}
		sort.Slice(near, func(a, b int) bool { return pts[near[a]].Dist2(pts[node]) < pts[near[b]].Dist2(pts[node]) })
		near = near[:min(len(near), k)]
		for _, c := range near {
			if c == sink {
				return []int{sink}
			}
		}
		sort.Slice(near, func(a, b int) bool { return pts[near[a]].Dist2(dest) < pts[near[b]].Dist2(dest) })
		return near
	}
	var batch [][]int
	path := []int{0}
	var dfs func(node int)
	dfs = func(node int) {
		if len(batch) >= limit {
			return
		}
		if node == sink {
			batch = append(batch, append([]int(nil), path...))
			return
		}
		for _, next := range succ(node) {
			path = append(path, next)
			dfs(next)
			path = path[:len(path)-1]
		}
	}
	dfs(0)
	return batch
}

// worldTable samples noisy trips of a simulated city into a point table the
// way NNI lays one out: a query point, one archive point per 100 m cell, the
// next query point.
func worldTable(t *testing.T, seed int64) (*roadnet.Graph, []geo.Point) {
	city, rng := testWorld(seed)
	route, ok := city.TripOfLength(5000, 4, 1.6, rng)
	if !ok {
		t.Fatal("TripOfLength failed")
	}
	motion := sim.DefaultMotion()
	motion.Interval = 15
	truth := sim.SimulateTrip(city.Graph, route, "q", 0, motion, rng)
	pts := []geo.Point{truth.Points[0].Pt}
	seen := map[[2]int]bool{}
	for trip := 0; trip < 4; trip++ {
		for _, p := range traj.AddNoise(truth, 25, rng).Points {
			cell := [2]int{int(math.Floor(p.Pt.X / 100)), int(math.Floor(p.Pt.Y / 100))}
			if !seen[cell] {
				seen[cell] = true
				pts = append(pts, p.Pt)
			}
		}
	}
	return city.Graph, append(pts, truth.Points[truth.Len()-1].Pt)
}

// deadEndGraph is a one-way loop A→B→C→D→A with a one-way spur B→S that
// nothing leaves: a bridge out of the spur is unreachable, and a bridge back
// along A→B has to go round the loop.
func deadEndGraph() *roadnet.Graph {
	b := roadnet.NewBuilder()
	A, B := b.AddVertex(geo.Pt(0, 0)), b.AddVertex(geo.Pt(300, 0))
	C, D := b.AddVertex(geo.Pt(300, 300)), b.AddVertex(geo.Pt(0, 300))
	S := b.AddVertex(geo.Pt(600, 0))
	for _, e := range [][2]roadnet.VertexID{{A, B}, {B, C}, {C, D}, {D, A}, {B, S}} {
		b.AddEdge(e[0], e[1], 15, nil)
	}
	return b.Build()
}

func TestProjectorOracleEquivalence(t *testing.T) {
	var reused Projector // one projector across every batch: Reset must leave nothing behind

	// Trie-ordered batches on simulated worlds, candidates read from stored
	// rows and searched, at both ε the match tables are built for. 25 m noise
	// leaves some points without a candidate inside 30 m (row empty → widening).
	for _, seed := range []int64{109, 211} {
		g, pts := worldTable(t, seed)
		batch := trieBatch(pts, 4, 48)
		if len(batch) < 10 {
			t.Fatalf("world %d: only %d traces over %d points", seed, len(batch), len(pts))
		}
		for _, eps := range []float64{30, 50} {
			prm := DefaultParams()
			prm.CandidateRadius = eps
			name := fmt.Sprintf("world %d eps %v", seed, eps)
			checkBatch(t, name+" rows", g, prm, pts, tableRows{g, pts, eps}, &reused, batch)
			checkBatch(t, name+" search", g, prm, pts, nil, &reused, batch)
		}
	}

	// Hand-built edges of the trie on a 100 m grid at ε = 30: point 6 sits in
	// the middle of a block (no candidate inside ε: the row is empty and the
	// search widens), point 7 is out of reach of even the widened search (its
	// snap fails).
	grid := roadnet.NewGrid(4, 6, 100, 15)
	gridPts := []geo.Point{
		geo.Pt(10, 4), geo.Pt(120, -5), geo.Pt(230, 6), geo.Pt(360, -3), geo.Pt(395, 110), geo.Pt(404, 230),
		geo.Pt(250, 150), geo.Pt(20000, 20000),
	}
	prm := DefaultParams()
	prm.CandidateRadius = 30
	for _, c := range []struct {
		name  string
		batch [][]int
	}{
		{"no shared prefix", [][]int{{0, 1, 2}, {3, 4, 5}}},
		{"identical to predecessor", [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}}},
		{"strict prefix of predecessor", [][]int{{0, 1, 2, 3, 4}, {0, 1, 2}, {0, 1}}},
		{"predecessor is a strict prefix", [][]int{{0, 1}, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5}}},
		{"one index and empty", [][]int{{2}, {}, {2}, {0, 1}, {}, {0, 1, 2}}},
		{"diverge at the last index", [][]int{{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 2, 5}}},
		{"reversed travel", [][]int{{3, 2, 1, 0}, {3, 2, 1}, {3, 2, 0}}},
		{"empty row widens", [][]int{{0, 6, 3}, {0, 6, 4}, {6}, {6, 3}}},
		{"snap fails", [][]int{{0, 7, 3}, {0, 7, 4}, {7}, {7, 7}, {0, 1, 7}, {0, 1, 7, 3}}},
	} {
		checkBatch(t, c.name+" rows", grid, prm, gridPts, tableRows{grid, gridPts, 30}, &reused, c.batch)
		checkBatch(t, c.name+" search", grid, prm, gridPts, nil, &reused, c.batch)
	}

	// One-way streets. 0, 1: along A→B; 2: on the dead-end spur; 3: on B→C.
	oneWay := deadEndGraph()
	oneWayPts := []geo.Point{geo.Pt(80, 5), geo.Pt(200, -4), geo.Pt(450, 4), geo.Pt(296, 150)}
	for _, c := range []struct {
		name  string
		batch [][]int
	}{
		// Nothing leaves the spur: the location after it is dropped, and the
		// traces that share the prefix resume behind the failed bridge.
		{"unreachable bridge", [][]int{{0, 2, 1}, {0, 2, 1, 3}, {0, 2, 3}, {2, 0}, {2, 0, 3}}},
		// 1 then 0 snap to A→B with decreasing offset: the bridge is not the
		// same-edge shortcut but the way round the loop.
		{"same edge, decreasing offset", [][]int{{1, 0}, {1, 0, 3}, {0, 1}, {1, 0, 1, 0}}},
	} {
		checkBatch(t, c.name+" rows", oneWay, prm, oneWayPts, tableRows{oneWay, oneWayPts, 30}, &reused, c.batch)
		checkBatch(t, c.name+" search", oneWay, prm, oneWayPts, nil, &reused, c.batch)
	}
	var pj Projector
	resetProjector(&pj, oneWay, prm, oneWayPts, nil)
	if r, err := pj.Project(context.Background(), []int{1, 0}); err != nil || len(r) != 5 || r[0] != r[4] {
		t.Fatalf("decreasing offset on one edge: route %v, %v; want the loop back onto the edge", r, err)
	}
	if r, err := pj.Project(context.Background(), []int{0, 2, 1}); err != nil || len(r) != 2 {
		t.Fatalf("dead-end spur: route %v, %v; want the two edges into the spur", r, err)
	}
}

// doneCountingCtx cancels itself the nth time its Done channel is asked for:
// Project asks once on entry and every shortest-path search once more, so
// n = 2 aborts exactly the first bridge that reaches the oracle.
type doneCountingCtx struct {
	context.Context
	n      *int
	cancel context.CancelFunc
}

func (c doneCountingCtx) Done() <-chan struct{} {
	if *c.n--; *c.n == 0 {
		c.cancel()
	}
	return c.Context.Done()
}

// TestProjectorCancelledCallLeavesNoState: a cancelled Project returns
// ctx.Err(), caches no bridge it aborted, and leaves no resume state — the
// next call under a live context answers exactly like a clean projector.
func TestProjectorCancelledCallLeavesNoState(t *testing.T) {
	g, pts := worldTable(t, 109)
	batch := trieBatch(pts, 4, 48)
	prm := DefaultParams()
	live := context.Background()
	clean := func(seq []int) roadnet.Route {
		var pj Projector
		resetProjector(&pj, g, prm, pts, nil)
		r, err := pj.Project(live, seq)
		if err != nil {
			t.Fatalf("clean projection of %v: %v", seq, err)
		}
		return append(roadnet.Route(nil), r...)
	}

	// Cancelled before the call: nothing runs, and the trace that follows —
	// sharing a prefix with the trace before the cancelled one — is right.
	var pj Projector
	resetProjector(&pj, g, prm, pts, nil)
	if _, err := pj.Project(live, batch[0]); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(live)
	cancel()
	if _, err := pj.Project(dead, batch[1]); err != context.Canceled {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	for _, seq := range [][]int{batch[0], batch[1], batch[2]} {
		if got, err := pj.Project(live, seq); err != nil || !got.Equal(clean(seq)) {
			t.Fatalf("after a cancelled call %v projected to %v, %v; clean projector %v", seq, got, err, clean(seq))
		}
	}

	// Cancelled inside the only bridge search of a two-point trace: the
	// bridge fails as "aborted", after the last cancellation checkpoint of the
	// loop. Returned, the route would be one edge long; cached, the failure
	// would cut every later trace short the same way.
	grid := roadnet.NewGrid(4, 6, 100, 15)
	pts = []geo.Point{geo.Pt(10, 4), geo.Pt(404, 230), geo.Pt(230, 306)}
	resetProjector(&pj, grid, prm, pts, nil)
	n := 2
	base, cancel := context.WithCancel(live)
	defer cancel()
	if r, err := pj.Project(doneCountingCtx{base, &n, cancel}, []int{0, 1}); err != context.Canceled {
		t.Fatalf("call cancelled mid-bridge returned %v, %v, want context.Canceled", r, err)
	}
	for _, seq := range [][]int{{0, 1}, {0, 1, 2}} {
		var fresh Projector
		resetProjector(&fresh, grid, prm, pts, nil)
		want, _ := fresh.Project(live, seq)
		if got, err := pj.Project(live, seq); err != nil || len(got) < 4 || !got.Equal(want) {
			t.Fatalf("after a mid-bridge cancellation %v projected to %v, %v; clean projector %v", seq, got, err, want)
		}
	}
}
