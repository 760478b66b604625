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
// reference points with the archive samples they are.
func oracleSupport(g *roadnet.Graph, v hist.View, refs []hist.Reference, eps float64) ([]roadnet.EdgeID, map[roadnet.EdgeID]map[int32]bool, []oracleSample) {
	var edges []roadnet.EdgeID
	support := make(map[roadnet.EdgeID]map[int32]bool)
	var points []oracleSample
	for _, r := range refs {
		pts := refPoints(v, r)
		for j, p := range pts {
			smp := oracleSample{p.Pt, r.SourceA, r.OffA + int32(j)}
			if j >= int(r.LenA) {
				smp.traj, smp.k = r.SourceB, r.OffB+int32(j)-r.LenA
			}
			points = append(points, smp)
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

// oracleSample is one reference point: sample k of archive trajectory traj.
type oracleSample struct {
	pt      geo.Point
	traj, k int32
}

// firstSightings returns the samples of pts without repeats, in order of
// first appearance.
func firstSightings(pts []oracleSample) []oracleSample {
	var out []oracleSample
	seen := make(map[[2]int32]bool)
	for _, p := range pts {
		if !seen[[2]int32{p.traj, p.k}] {
			seen[[2]int32{p.traj, p.k}] = true
			out = append(out, p)
		}
	}
	return out
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
// per-point oracle agree exactly on refs: the same traverse edges (in any
// order: TGI sorts them), the same support per edge, the same archive samples
// in order of first appearance (repeats allowed), the same |P_i|, MBR and
// density, and the same NNI point table.
func checkAgainstOracle(t *testing.T, x exec, refs []hist.Reference, what string) *pairContext {
	t.Helper()
	x.sc = newPairScratch()
	pctx := x.buildPairContext(0, traj.GPSPoint{}, traj.GPSPoint{}, refs)
	edges, support, points := oracleSupport(x.eng.g, x.snap, refs, x.p.CandEps)
	got, want := slices.Clone(pctx.sc.edges), slices.Clone(edges)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: traverse edges %v, oracle %v", what, got, want)
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
	// Name the listed samples by trajectory id, through the table index.
	tabID := make([]int32, len(pctx.sc.tabs))
	for di, s := range pctx.sc.idSlots {
		if s.tab >= 0 {
			tabID[s.tab] = pctx.ids[di]
		}
	}
	listed := make([]oracleSample, len(pctx.points))
	for i, p := range pctx.points {
		listed[i] = oracleSample{p.pt, tabID[p.tab], p.k}
	}
	if got, want := firstSightings(listed), firstSightings(points); !slices.Equal(got, want) {
		t.Fatalf("%s: samples %v, oracle %v", what, got, want)
	}
	if pctx.npoints != len(points) {
		t.Fatalf("%s: |P_i| = %d, oracle %d", what, pctx.npoints, len(points))
	}
	box := geo.EmptyBBox()
	for _, p := range points {
		box = box.ExtendPoint(p.pt)
	}
	if pctx.box != box {
		t.Fatalf("%s: stored MBR %v, rescanned %v", what, pctx.box, box)
	}
	if want := float64(len(points)) / (box.Area() / 1e6); len(points) > 0 && box.Area() >= 1 && pctx.density() != want {
		t.Fatalf("%s: density %v, oracle %v", what, pctx.density(), want)
	}
	// NNI's table keeps the first point of each grid cell: listing a sample
	// once instead of once per reference must not change which.
	dedupPointsInto(pctx.sc, pctx.points, geo.Point{}, geo.Point{})
	var table []oracleSample
	cells := make(map[uint64]bool)
	for _, p := range points {
		if k := cellKey(p.pt); !cells[k] {
			cells[k] = true
			table = append(table, p)
		}
	}
	if len(pctx.sc.nniSrc) != len(table) {
		t.Fatalf("%s: NNI table of %d points, oracle %d", what, len(pctx.sc.nniSrc), len(table))
	}
	for i, s := range pctx.sc.nniSrc {
		if got := (oracleSample{pctx.sc.nniPts[i+1], tabID[s.tab], s.k}); got != table[i] {
			t.Fatalf("%s: NNI table point %d = %v, oracle %v", what, i, got, table[i])
		}
	}
	return pctx
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
// trajectory's end — and over splice-heavy pairs that share runs (see
// spliceHeavyGroups), at the default and two non-default ε on one engine.
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
	fanOut, fanIn, mixed := spliceHeavyGroups(t, v, rng)
	for _, eps := range []float64{w.p.CandEps, 25, 90} {
		x := w.exec()
		x.p.CandEps = eps
		for i, r := range refs {
			checkAgainstOracle(t, x, []hist.Reference{r}, "single")
			if i%12 == 0 { // and as one pair, where edges are shared between references
				checkAgainstOracle(t, x, refs[i:min(i+12, len(refs))], "group")
			}
		}
		for _, g := range []struct {
			what string
			refs []hist.Reference
		}{{"fan-out", fanOut}, {"fan-in", fanIn}, {"mixed", mixed}} {
			// Run order must not matter either: reversed, the shortest cuts
			// of a run come last; shuffled, cuts grow and shrink.
			shuffled := slices.Clone(g.refs)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, refs := range [][]hist.Reference{g.refs, reversed(g.refs), shuffled} {
				pctx := checkAgainstOracle(t, x, refs, g.what)
				if g.what == "mixed" {
					continue
				}
				// Fully run-structured: every sample listed exactly once.
				distinct := make(map[sampleID]bool)
				for _, p := range pctx.points {
					distinct[p.sampleID] = true
				}
				if len(distinct) != len(pctx.points) || len(pctx.points) >= pctx.npoints {
					t.Fatalf("%s: %d listed samples, %d distinct, for |P_i| = %d: want each shared sample listed once",
						g.what, len(pctx.points), len(distinct), pctx.npoints)
				}
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

// spliceHeavyGroups synthesizes the shapes Definition 7's join emits on a
// sparse pair: fanOut splices one T_a, always from the same OffA, to 24
// partners at 24 different cut rows (each partner ending at its own fixed
// last row); fanIn is the mirror, one T_b always up to the same last row,
// cut at a different row for each of 24 partners, down to one-row parts. The
// mixed group is fanOut and fanIn interleaved with references that break
// their run structure: the same T_a from other start rows, the same T_b up to
// other last rows, the T_a as a T_b and the T_b as a T_a, and simple windows
// of both.
func spliceHeavyGroups(t *testing.T, v hist.View, rng *rand.Rand) (fanOut, fanIn, mixed []hist.Reference) {
	t.Helper()
	var long, other []int
	for ti := 0; ti < v.NumTrajs(); ti++ {
		switch n := v.Traj(ti).Len(); {
		case n >= 30 && len(long) < 2:
			long = append(long, ti)
		case n >= 4:
			other = append(other, ti)
		}
	}
	const partners = 24
	if len(long) < 2 || len(other) < partners {
		t.Fatalf("world has %d long and %d other trajectories", len(long), len(other))
	}
	ta, tb := long[0], long[1]
	la, lb := v.Traj(ta).Len()-1, v.Traj(tb).Len()-1
	for p := 0; p < partners; p++ {
		tp := other[p]
		lp := v.Traj(tp).Len() - 1
		// T_a from row 2, cut at rows 2..25: from a one-row part up.
		fanOut = append(fanOut, splice(v, ta, 2, 2+p, tp, rng.Intn(lp+1), lp))
		// T_b up to row lb-1, cut at rows lb-1 down to lb-24.
		fanIn = append(fanIn, splice(v, tp, 0, rng.Intn(lp+1), tb, lb-1-p, lb-1))
	}
	for p := 0; p < partners; p++ {
		mixed = append(mixed, fanOut[p], fanIn[p])
		switch p % 6 {
		case 0:
			mixed = append(mixed, splice(v, ta, 3, 3+p, other[p], 0, 1)) // T_a from another row
		case 1:
			mixed = append(mixed, splice(v, other[p], 0, 1, tb, lb-3-p, lb-2)) // T_b to another row
		case 2:
			mixed = append(mixed, splice(v, tb, 1, 4, ta, la-p, la)) // the roles swapped
		case 3:
			mixed = append(mixed, window(v, ta, 0, la), window(v, tb, p, p+3))
		case 4:
			mixed = append(mixed, splice(v, ta, 2, 2+p, tb, lb-1-p, lb-1)) // both runs at once
		}
	}
	// A conflicting reference ahead of every claim: the T_a run then starts
	// where it says, and the fan-out's references go point by point.
	mixed = append([]hist.Reference{splice(v, ta, 5, 9, tb, 0, lb)}, mixed...)
	return fanOut, fanIn, mixed
}

func reversed(refs []hist.Reference) []hist.Reference {
	out := slices.Clone(refs)
	slices.Reverse(out)
	return out
}

// TestMatchTableOnLiveShardedStore runs the same property on what the
// reference search really returns, over a 4-shard store that ingests
// between rounds: references resolve to the right trajectories through the
// store's indices, trips of a new epoch get tables, and the tables of
// old trips survive the epoch instead of being rebuilt.
func TestMatchTableOnLiveShardedStore(t *testing.T) {
	w := newWorld(t, 260, 23)
	ds, queries := w.ds, w.queries(t, 3)
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
// trajectory, equal to a table built alone. Run under -race. (That cold
// engines racing first touches answer as the model is TestModelConcurrent's.)
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

}
