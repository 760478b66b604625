package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// oracleSupport is the per-point loop buildPairContext ran before the match
// table existed, kept verbatim as the reference implementation: every point
// of every reference probes its candidate edges and recomputes the travel
// heading and each segment's heading from its shape. It returns the traverse
// edges in first-touch order, each edge's supporting trajectory ids, and the
// reference points.
func oracleSupport(g *roadnet.Graph, v hist.View, refs []hist.Reference, eps float64) ([]roadnet.EdgeID, map[roadnet.EdgeID]map[int32]bool, []geo.Point) {
	var edges []roadnet.EdgeID
	support := make(map[roadnet.EdgeID]map[int32]bool)
	var points []geo.Point
	for _, r := range refs {
		pts := refPoints(v, r)
		for j, p := range pts {
			points = append(points, p.Pt)
			heading, hasHeading := travelHeading(pts, j)
			for _, c := range g.CandidateEdges(p.Pt, eps) {
				if hasHeading && !edgeAligned(g, c.Edge, heading) {
					continue
				}
				if support[c.Edge] == nil {
					support[c.Edge] = make(map[int32]bool)
					edges = append(edges, c.Edge)
				}
				support[c.Edge][r.SourceA] = true
				if r.SourceB >= 0 {
					support[c.Edge][r.SourceB] = true
				}
			}
		}
	}
	return edges, support, points
}

// travelHeading estimates the direction of travel at point j of a
// reference sub-trajectory: toward the next sample, or from the previous
// one at the tail.
func travelHeading(pts []traj.GPSPoint, j int) (float64, bool) {
	if j+1 < len(pts) {
		return pts[j].Pt.Heading(pts[j+1].Pt), true
	}
	if j > 0 {
		return pts[j-1].Pt.Heading(pts[j].Pt), true
	}
	return 0, false
}

// edgeAligned reports whether segment e's direction agrees with heading.
func edgeAligned(g *roadnet.Graph, e roadnet.EdgeID, heading float64) bool {
	seg := g.Seg(e)
	segHeading := seg.Shape[0].Heading(seg.Shape[len(seg.Shape)-1])
	return geo.AngleDiff(segHeading, heading) <= maxHeadingDiff
}

// checkAgainstOracle asserts that the table-driven buildPairContext and the
// per-point oracle agree exactly on refs: same traverse edges in the same
// first-touch order, same support per edge, same points, same density.
func checkAgainstOracle(t *testing.T, x exec, refs []hist.Reference, what string) {
	t.Helper()
	x.sc = newPairScratch()
	pctx := x.buildPairContext(0, traj.GPSPoint{}, traj.GPSPoint{}, refs)
	edges, support, points := oracleSupport(x.eng.g, x.snap, refs, x.p.CandEps)
	if !slices.Equal(pctx.sc.edges, edges) {
		t.Fatalf("%s: traverse edges %v, oracle %v", what, pctx.sc.edges, edges)
	}
	for _, e := range edges {
		var want []int32
		for id := range support[e] {
			want = append(want, id)
		}
		slices.Sort(want)
		if got := pctx.refIDs(pctx.edgeBits(e)); !slices.Equal(got, want) {
			t.Fatalf("%s: edge %d supported by %v, oracle %v", what, e, got, want)
		}
	}
	if len(pctx.points) != len(points) {
		t.Fatalf("%s: %d points, oracle %d", what, len(pctx.points), len(points))
	}
	box := geo.EmptyBBox()
	for i, p := range points {
		if pctx.points[i].pt != p {
			t.Fatalf("%s: point %d = %v, oracle %v", what, i, pctx.points[i].pt, p)
		}
		box = box.ExtendPoint(p)
	}
	if pctx.box != box {
		t.Fatalf("%s: stored MBR %v, rescanned %v", what, pctx.box, box)
	}
}

// window is the simple reference covering points [m, n] of trajectory ti.
func window(v hist.View, ti, m, n int) hist.Reference {
	return hist.Reference{
		SourceA: int32(ti), SourceB: -1,
		OffA: int32(m), LenA: int32(n - m + 1),
	}
}

// splice is the spliced reference joining points [m, a] of trajectory ta to
// points [b, n] of trajectory tb.
func splice(v hist.View, ta, m, a, tb, b, n int) hist.Reference {
	return hist.Reference{
		Spliced: true,
		SourceA: int32(ta), SourceB: int32(tb),
		OffA: int32(m), LenA: int32(a - m + 1), OffB: int32(b), LenB: int32(n - b + 1),
	}
}

// TestMatchTableMatchesPerPointOracle is the table ≡ per-point property over
// synthesized references of every shape the heading rule distinguishes —
// whole trajectories, head/interior/tail windows, single points (no
// heading), and splices whose A or B part is a single point or reaches a
// trajectory's end — at the default and two non-default ε on one engine.
func TestMatchTableMatchesPerPointOracle(t *testing.T) {
	w := newWorld(t, 120, 191)
	v := w.eng.src.Current()
	rng := rand.New(rand.NewSource(4))
	var refs []hist.Reference
	for i := 0; i < 40; i++ {
		ti, tj := rng.Intn(v.NumTrajs()), rng.Intn(v.NumTrajs())
		la, lb := v.Traj(ti).Len()-1, v.Traj(tj).Len()-1
		if la < 3 || lb < 3 {
			continue
		}
		m, b := rng.Intn(la), rng.Intn(lb)
		a, n := m+rng.Intn(la-m+1), b+rng.Intn(lb-b+1)
		refs = append(refs,
			window(v, ti, 0, la), window(v, ti, 0, 2), window(v, ti, m, a), window(v, ti, la-2, la),
			window(v, ti, 0, 0), window(v, ti, m, m), window(v, ti, la, la),
			splice(v, ti, m, a, tj, b, n), splice(v, ti, m, m, tj, b, b),
			splice(v, ti, m, m, tj, b, lb), splice(v, ti, 0, la, tj, lb, lb), splice(v, ti, la, la, tj, 0, n),
		)
	}
	if len(refs) < 200 {
		t.Fatalf("only %d synthesized references", len(refs))
	}
	for _, eps := range []float64{w.p.CandEps, 25, 90} {
		x := w.exec()
		x.p.CandEps = eps
		for i, r := range refs {
			checkAgainstOracle(t, x, []hist.Reference{r}, "single")
			if i%12 == 0 { // and as one pair, where edges are shared between references
				checkAgainstOracle(t, x, refs[i:min(i+12, len(refs))], "group")
			}
		}
	}
	// One table per (trajectory, ε): the three ε did not share entries.
	c := w.eng.Metrics().Counters
	if c["cache.trajmatch.tables"]%3 != 0 || c["cache.trajmatch.tables"] != c["cache.trajmatch.builds"] {
		t.Fatalf("tables %d, builds %d: want one serial build per trajectory per ε",
			c["cache.trajmatch.tables"], c["cache.trajmatch.builds"])
	}
}

// TestMatchTableOnLiveShardedStore runs the same property on what the
// reference search really returns, over a 4-shard store that ingests
// between rounds: references resolve to the right trajectories through the
// store's indices, trips of a new epoch get tables, and the tables of
// old trips survive the epoch instead of being rebuilt.
func TestMatchTableOnLiveShardedStore(t *testing.T) {
	ds, queries := liveWorld(260, 23)
	const seedTrips = 130
	st := hist.NewShardedStore(ds.City.Graph, ds.Archive[:seedTrips], hist.ShardedConfig{
		Shards: 4, Halo: DefaultParams().Phi,
	})
	eng := NewEngine(st, DefaultParams())
	simple, spliced := 0, 0
	round := func(what string) {
		x := eng.newExec(context.Background(), DefaultParams(), eng.src.Current())
		sp := hist.SearchParams{Phi: x.p.Phi, SpliceEps: x.p.SpliceEps, SpliceMinSimple: x.p.SpliceMinSimple}
		for _, q := range queries {
			for i := 0; i+1 < q.Len(); i++ {
				refs := eng.refs.ReferencesOn(x.ctx, x.snap, q.Points[i], q.Points[i+1], sp, new(hist.Searcher), nil)
				checkAgainstOracle(t, x, refs, what)
				for _, r := range refs {
					if r.Spliced {
						spliced++
					} else {
						simple++
					}
				}
			}
		}
	}
	round("seed epoch")
	old := make(map[*traj.Trajectory]*trajMatch)
	eng.match.mu.RLock()
	for k, tm := range eng.match.m {
		old[k.tr] = tm
	}
	eng.match.mu.RUnlock()
	if len(old) == 0 {
		t.Fatal("first round touched no trajectory")
	}

	st.IngestTrips(ds.Archive[seedTrips:]...)
	st.Compact()
	st.Wait()
	round("after ingest")
	if simple == 0 || spliced == 0 {
		t.Fatalf("reference search returned %d simple and %d spliced references; want both kinds", simple, spliced)
	}
	fresh := 0
	for _, tr := range ds.Archive[seedTrips:] {
		eng.match.mu.RLock()
		if eng.match.m[matchKey{tr, math.Float64bits(DefaultParams().CandEps)}] != nil {
			fresh++
		}
		eng.match.mu.RUnlock()
	}
	if fresh == 0 {
		t.Fatal("no trip of the new epoch got a match table")
	}
	for tr, tm := range old {
		if eng.match.get(tr, DefaultParams().CandEps) != tm {
			t.Fatalf("table of %s was replaced across the epoch", tr.ID)
		}
	}
	if tables, _, builds := eng.match.stats(); builds != tables {
		t.Fatalf("builds %d != tables %d: an old table was rebuilt", builds, tables)
	}
}

// TestMatchTableConcurrentFirstTouch: goroutines that first-touch the same
// trajectories at once all get one and the same complete table per
// trajectory — equal to a table built alone — and a cold engine inferring
// with parallel pair workers answers exactly like a warm serial one. Run
// under -race.
func TestMatchTableConcurrentFirstTouch(t *testing.T) {
	w := newWorld(t, 150, 33)
	v := w.eng.src.Current()
	const workers = 8
	got := make([][]*trajMatch, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]*trajMatch, v.NumTrajs())
			for i := range got[g] {
				ti := (i + g) % v.NumTrajs() // staggered, so touches collide mid-build
				got[g][ti] = w.eng.match.get(v.Traj(ti), w.p.CandEps)
			}
		}()
	}
	wg.Wait()
	for ti := 0; ti < v.NumTrajs(); ti++ {
		want := buildTrajMatch(w.g, v.Traj(ti), w.p.CandEps)
		for g := 0; g < workers; g++ {
			if got[g][ti] != got[0][ti] {
				t.Fatalf("trajectory %d: goroutines %d and 0 hold different tables", ti, g)
			}
		}
		if !reflect.DeepEqual(got[0][ti], want) {
			t.Fatalf("trajectory %d: published table differs from a solo build", ti)
		}
	}
	if tables, points, builds := w.eng.match.stats(); tables != uint64(v.NumTrajs()) ||
		points != uint64(v.NumPoints()) || builds < tables {
		t.Fatalf("tables %d points %d builds %d for %d trajectories of %d points",
			tables, points, builds, v.NumTrajs(), v.NumPoints())
	}

	cold := NewEngine(w.eng.Source(), DefaultParams())
	p := w.p
	p.PairWorkers = workers
	for n := 0; n < 6; {
		qc, ok := w.ds.GenQuery(6000, 120, 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		n++
		var res [2]*Result
		var errs [2]error
		wg.Add(2)
		for i := range res {
			go func() {
				defer wg.Done()
				res[i], errs[i] = cold.InferRoutes(qc.Query, p)
			}()
		}
		wg.Wait()
		want, werr := w.eng.InferRoutes(qc.Query, w.p)
		for i := range res {
			if (errs[i] == nil) != (werr == nil) {
				t.Fatalf("query %d: errors diverge: %v vs %v", n, errs[i], werr)
			}
			if werr == nil && encodeFull(v, res[i]) != encodeFull(v, want) {
				t.Fatalf("query %d: cold parallel answer differs from warm serial", n)
			}
		}
	}
}
