package hist

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

// The reference search as it stood before the near-set rewrite, moved here
// verbatim (maps, per-call range results, NearestPointIndex scans, the
// re-checks the rewrite deleted) as the oracle the production search is
// compared against. The only edits: it materializes points into oracleRef
// instead of hist.Reference, and its range primitive is a brute-force scan
// of the view rather than View.WithinRadius, which no longer exists — so the
// oracle is also independent of the spatial index and of shard routing.

type oracleRef struct {
	Points           []traj.GPSPoint
	Spliced          bool
	SourceA, SourceB int32
	OffA, LenA, OffB int32
}

type swPoint struct {
	pt   geo.Point
	traj int
	idx  int
}

func oracleWithinRadius(v View, p geo.Point, r float64) []PointRef {
	if r < 0 {
		return nil
	}
	var out []PointRef
	for ti := 0; ti < v.NumTrajs(); ti++ {
		for pi, gp := range v.Traj(ti).Points {
			if (geo.BBox{Min: gp.Pt, Max: gp.Pt}).DistToPoint(p) <= r {
				out = append(out, PointRef{Traj: ti, Idx: pi})
			}
		}
	}
	return out
}

func oracleReferences(v View, qi, qj traj.GPSPoint, p SearchParams, done <-chan struct{}) []oracleRef {
	vmax := p.VMax
	if vmax <= 0 {
		vmax = v.Graph().MaxSpeed()
	}
	vmaxBudget := (qj.T - qi.T) * vmax

	nearI := oracleWithinRadius(v, qi.Pt, p.Phi)
	nearJ := oracleWithinRadius(v, qj.Pt, p.Phi)

	// Group range hits per trajectory, keeping the nearest hit.
	bestI := oracleNearestPerTraj(v, nearI, qi.Pt)
	bestJ := oracleNearestPerTraj(v, nearJ, qj.Pt)

	var refs []oracleRef
	usedA := make(map[int]bool) // trajectories already simple references
	candidates := make([]int, 0, len(bestI))
	for ti := range bestI {
		candidates = append(candidates, ti)
	}
	sortTrajsCanonical(v, candidates)
	for _, ti := range candidates {
		if graphalg.Stopped(done) {
			return refs
		}
		if _, ok := bestJ[ti]; !ok {
			continue
		}
		tr := v.Traj(ti)
		m := tr.NearestPointIndex(qi.Pt)
		n := tr.NearestPointIndex(qj.Pt)
		if m < 0 || n < 0 || m > n {
			continue // wrong travel direction
		}
		if tr.Points[m].Pt.Dist(qi.Pt) > p.Phi || tr.Points[n].Pt.Dist(qj.Pt) > p.Phi {
			continue
		}
		sub := tr.Points[m : n+1]
		if !speedFeasible(sub, qi.Pt, qj.Pt, vmaxBudget) {
			continue
		}
		refs = append(refs, oracleRef{
			Points:  sub,
			SourceA: int32(ti),
			SourceB: -1,
			OffA:    int32(m),
			LenA:    int32(len(sub)),
		})
		usedA[ti] = true
	}

	if p.SpliceEps > 0 && (p.SpliceMinSimple == 0 || len(refs) < p.SpliceMinSimple) {
		refs = append(refs, oracleSplicedReferences(v, qi, qj, p, bestI, bestJ, usedA, vmaxBudget, done)...)
	}
	return refs
}

// canonicalKeys returns the map's trajectory indices in canonical content
// order (see canonKey).
func canonicalKeys(v View, m map[int]PointRef) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortTrajsCanonical(v, out)
	return out
}

// sortTrajsCanonical sorts trajectory indices into canonical content order
// (storage index as the final tie-break).
func sortTrajsCanonical(v View, idx []int) {
	keys := make([]canonKey, len(idx))
	for i, ti := range idx {
		keys[i] = canonKeyOf(v.Traj(ti))
	}
	sort.Sort(&canonSorter{idx: idx, keys: keys})
}

type canonSorter struct {
	idx  []int
	keys []canonKey
}

func (s *canonSorter) Len() int { return len(s.idx) }
func (s *canonSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
func (s *canonSorter) Less(i, j int) bool {
	if c := s.keys[i].compare(s.keys[j]); c != 0 {
		return c < 0
	}
	return s.idx[i] < s.idx[j]
}

// oracleNearestPerTraj keeps, per trajectory, the range hit closest to q.
func oracleNearestPerTraj(v View, hits []PointRef, q geo.Point) map[int]PointRef {
	best := make(map[int]PointRef)
	for _, h := range hits {
		cur, ok := best[h.Traj]
		if !ok || pointOf(v, h).Dist2(q) < pointOf(v, cur).Dist2(q) {
			best[h.Traj] = h
		}
	}
	return best
}

func oracleSplicedReferences(v View, qi, qj traj.GPSPoint, p SearchParams,
	bestI, bestJ map[int]PointRef, usedA map[int]bool, vmaxBudget float64,
	done <-chan struct{}) []oracleRef {

	var aside, bside []swPoint
	// A-side: points after nn(q_i, T_a) on trajectories near q_i only.
	for _, ti := range canonicalKeys(v, bestI) {
		if usedA[ti] {
			continue
		}
		if _, alsoJ := bestJ[ti]; alsoJ {
			continue // failed Definition 6 for another reason; skip
		}
		tr := v.Traj(ti)
		m := tr.NearestPointIndex(qi.Pt)
		if m < 0 || tr.Points[m].Pt.Dist(qi.Pt) > p.Phi {
			continue
		}
		for k := m; k < tr.Len(); k++ {
			pt := tr.Points[k].Pt
			if pt.Dist(qi.Pt)+pt.Dist(qj.Pt) > vmaxBudget {
				break // heading out of the feasible lens
			}
			aside = append(aside, swPoint{pt: pt, traj: ti, idx: k})
		}
	}
	// B-side: points before nn(q_{i+1}, T_b) on trajectories near q_{i+1}.
	for _, tj := range canonicalKeys(v, bestJ) {
		if usedA[tj] {
			continue
		}
		if _, alsoI := bestI[tj]; alsoI {
			continue
		}
		tr := v.Traj(tj)
		n := tr.NearestPointIndex(qj.Pt)
		if n < 0 || tr.Points[n].Pt.Dist(qj.Pt) > p.Phi {
			continue
		}
		for k := n; k >= 0; k-- {
			pt := tr.Points[k].Pt
			if pt.Dist(qi.Pt)+pt.Dist(qj.Pt) > vmaxBudget {
				break
			}
			bside = append(bside, swPoint{pt: pt, traj: tj, idx: k})
		}
	}
	if len(aside) == 0 || len(bside) == 0 {
		return nil
	}

	// Plane-sweep join on X with window e [Arge et al. 1998].
	byX := func(a, b swPoint) int { return cmp.Compare(a.pt.X, b.pt.X) }
	slices.SortStableFunc(aside, byX)
	slices.SortStableFunc(bside, byX)
	type pairKey struct{ a, b int }
	type splice struct {
		pa, pb swPoint
		d      float64
	}
	bestPair := make(map[pairKey]splice)
	lo := 0
	for i, pa := range aside {
		if i&255 == 0 && graphalg.Stopped(done) {
			return nil // a partial sweep would bias pair selection; drop it
		}
		for lo < len(bside) && bside[lo].pt.X < pa.pt.X-p.SpliceEps {
			lo++
		}
		for k := lo; k < len(bside) && bside[k].pt.X <= pa.pt.X+p.SpliceEps; k++ {
			pb := bside[k]
			if pa.traj == pb.traj {
				continue
			}
			if dy := pa.pt.Y - pb.pt.Y; dy > p.SpliceEps || dy < -p.SpliceEps {
				continue
			}
			if pa.pt.Dist(pb.pt) > p.SpliceEps {
				continue
			}
			key := pairKey{pa.traj, pb.traj}
			score := pa.pt.Dist(qi.Pt) + pb.pt.Dist(qj.Pt)
			if cur, ok := bestPair[key]; !ok || score < cur.d {
				bestPair[key] = splice{pa: pa, pb: pb, d: score}
			}
		}
	}

	// Emit spliced references in canonical (key-of-A, key-of-B) order so
	// the output is independent of trajectory storage order.
	keys := make([]pairKey, 0, len(bestPair))
	canon := make(map[int]canonKey)
	for key := range bestPair {
		keys = append(keys, key)
		if _, ok := canon[key.a]; !ok {
			canon[key.a] = canonKeyOf(v.Traj(key.a))
		}
		if _, ok := canon[key.b]; !ok {
			canon[key.b] = canonKeyOf(v.Traj(key.b))
		}
	}
	sort.Slice(keys, func(x, y int) bool {
		if c := canon[keys[x].a].compare(canon[keys[y].a]); c != 0 {
			return c < 0
		}
		if c := canon[keys[x].b].compare(canon[keys[y].b]); c != 0 {
			return c < 0
		}
		if keys[x].a != keys[y].a {
			return keys[x].a < keys[y].a
		}
		return keys[x].b < keys[y].b
	})
	var out []oracleRef
	for _, key := range keys {
		sp := bestPair[key]
		ta, tb := v.Traj(key.a), v.Traj(key.b)
		m := ta.NearestPointIndex(qi.Pt)
		n := tb.NearestPointIndex(qj.Pt)
		if m < 0 || n < 0 || sp.pa.idx < m || sp.pb.idx > n {
			continue
		}
		pts := make([]traj.GPSPoint, 0, sp.pa.idx-m+1+n-sp.pb.idx+1)
		pts = append(pts, ta.Points[m:sp.pa.idx+1]...)
		pts = append(pts, tb.Points[sp.pb.idx:n+1]...)
		if !speedFeasible(pts, qi.Pt, qj.Pt, vmaxBudget) {
			// The rewrite dropped this pass as dead by construction; the
			// equivalence test asserts it never fires.
			oracleSpliceRecheckFired++
			continue
		}
		out = append(out, oracleRef{
			Points:  pts,
			Spliced: true,
			SourceA: int32(key.a),
			SourceB: int32(key.b),
			OffA:    int32(m),
			LenA:    int32(sp.pa.idx - m + 1),
			OffB:    int32(sp.pb.idx),
		})
	}
	return out
}

// oracleSpliceRecheckFired counts spliced references the oracle's closing
// speedFeasible pass rejected (tests run the oracle on one goroutine).
var oracleSpliceRecheckFired int

// oracleWorld is a simulated city archive salted with the cases the nearest-
// sample tie rule and the sweep's tie-breaks exist for: stays (one location
// sampled several times in a row), byte-identical twins under one ID (only
// the storage index tells them apart) and under two, and a trip that passes
// the same location twice.
func oracleWorld(seed int64) (*roadnet.Graph, []*traj.Trajectory, []*traj.Trajectory) {
	cfg := sim.DefaultCityConfig()
	cfg.Rows, cfg.Cols, cfg.Hotspots = 10, 10, 5
	city := sim.GenerateCity(cfg, seed)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips, fcfg.Seed = 160, seed
	ds := sim.BuildDataset(city, fcfg)
	trips := ds.Archive
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 24; k++ {
		src := trips[rng.Intn(len(trips))]
		tw := src.Clone()
		switch k % 4 {
		case 0: // a stay: sample i repeated three times
			i := rng.Intn(tw.Len())
			p := tw.Points[i]
			tw.Points = slices.Insert(tw.Points, i, p, p)
			tw.ID = fmt.Sprintf("stay-%d", k)
		case 1: // identical twin, same ID
		case 2: // identical content, different ID
			tw.ID = fmt.Sprintf("twin-%d", k)
		case 3: // out and back over the same samples
			for i := tw.Len() - 2; i >= 0; i-- {
				p := tw.Points[i]
				p.T = tw.Points[tw.Len()-1].T + 15
				tw.Points = append(tw.Points, p)
			}
			tw.ID = fmt.Sprintf("loop-%d", k)
		}
		trips = append(trips, tw)
	}
	var queries []*traj.Trajectory
	for len(queries) < 3 {
		if qc, ok := ds.GenQuery(4000, 180, 15, fcfg, rng); ok {
			queries = append(queries, qc.Query)
		}
	}
	// A query through archive samples themselves, so query-to-sample
	// distances tie exactly (at zero, and between twins).
	src := trips[rng.Intn(len(trips))]
	snapQ := &traj.Trajectory{ID: "on-samples"}
	for i := 0; i < src.Len(); i += 6 {
		snapQ.Points = append(snapQ.Points, traj.GPSPoint{Pt: src.Points[i].Pt, T: float64(i) * 40})
	}
	return city.Graph, trips, append(queries, snapQ)
}

// checkAgainstOracle compares one search result with the oracle's: same
// references, same order, same runs.
func checkAgainstOracle(t *testing.T, what string, v View, got []Reference, want []oracleRef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d references, oracle %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		lenB := int32(len(w.Points)) - w.LenA
		if g.Spliced != w.Spliced || g.SourceA != w.SourceA || g.SourceB != w.SourceB ||
			g.OffA != w.OffA || g.LenA != w.LenA || g.LenB != lenB || (w.Spliced && g.OffB != w.OffB) {
			t.Fatalf("%s: reference %d = %+v, oracle %+v (%d points)", what, i, g, w, len(w.Points))
		}
		if !slices.Equal(refPoints(v, g), w.Points) {
			t.Fatalf("%s: reference %d names other points than the oracle materialized", what, i)
		}
	}
}

// TestReferenceOracleEquivalence: the near-set search returns exactly what
// the map-based search it replaced returns, on every view kind, across the
// parameter space — through the pooled entry point, and through one
// long-lived Searcher whose carried near sets and stamp tables survive from
// pair to pair (up a query, and down it), view to view and parameter set to
// parameter set.
func TestReferenceOracleEquivalence(t *testing.T) {
	seeds := []int64{11, 12}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var carried, backward Searcher
	for _, seed := range seeds {
		g, trips, queries := oracleWorld(seed)
		live := NewStore(g, trips[:40], StoreConfig{CompactSegments: 1 << 20})
		for lo := 40; lo < len(trips); lo += 30 {
			live.IngestTrips(trips[lo:min(lo+30, len(trips))]...)
		}
		sharded := NewShardedStore(g, trips[:40], ShardedConfig{Shards: 4, Halo: 300})
		for lo := 40; lo < len(trips); lo += 50 {
			sharded.IngestTrips(trips[lo:min(lo+50, len(trips))]...)
		}
		views := map[string]View{"bulk": NewArchive(g, trips), "live": live.Current(), "sharded": sharded.Current()}
		if segs := views["live"].Segments(); segs < 2 {
			t.Fatalf("live view has %d segments, want un-compacted memtables", segs)
		}
		spliced := 0
		for name, v := range views {
			for _, phi := range []float64{100, 300, 500, 1000} {
				for _, minSimple := range []int{0, 8} {
					for _, vmax := range []float64{0, 9} {
						p := SearchParams{Phi: phi, SpliceEps: 200, SpliceMinSimple: minSimple, VMax: vmax}
						for _, q := range queries {
							wants := make([][]oracleRef, q.Len()-1)
							for i := range wants {
								qi, qj := q.Points[i], q.Points[i+1]
								what := fmt.Sprintf("seed %d %s %+v %s pair %d", seed, name, p, q.ID, i)
								want := oracleReferences(v, qi, qj, p, nil)
								checkAgainstOracle(t, what, v, References(v, qi, qj, p), want)
								checkAgainstOracle(t, what+" (carried)", v, carried.references(v, qi, qj, p, nil, nil), want)
								for _, w := range want {
									if w.Spliced {
										spliced++
									}
								}
								wants[i] = want
							}
							// And back down the query, the order a worker eating a
							// region from its far end searches in.
							for i := len(wants) - 1; i >= 0; i-- {
								what := fmt.Sprintf("seed %d %s %+v %s pair %d (carried backward)", seed, name, p, q.ID, i)
								checkAgainstOracle(t, what, v, backward.references(v, q.Points[i], q.Points[i+1], p, nil, nil), wants[i])
							}
						}
					}
				}
			}
		}
		if spliced == 0 {
			t.Fatalf("seed %d: the oracle never spliced — the join went untested", seed)
		}
	}
	// The passes the rewrite deleted were dead: the oracle still runs its
	// closing speedFeasible over every spliced reference and never rejects one.
	if oracleSpliceRecheckFired != 0 {
		t.Fatalf("the oracle's spliced speedFeasible re-check rejected %d references", oracleSpliceRecheckFired)
	}
}

// TestReferenceSearchHostileInputs pins what the search does with inputs no
// well-formed query has — the ones a /stream client can send: they have no
// references, do not panic, and leave nothing in the memo, on both view kinds.
func TestReferenceSearchHostileInputs(t *testing.T) {
	g, qi, qj := refWorld()
	through := lineTraj("through", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	ta := lineTraj("ta", geo.Pt(40, 10), geo.Pt(120, 10), geo.Pt(200, 10))
	tb := lineTraj("tb", geo.Pt(210, 20), geo.Pt(280, 10), geo.Pt(350, 15))
	lone := lineTraj("lone", geo.Pt(45, 5)) // one sample, near q_i only
	trips := []*traj.Trajectory{through, ta, tb, lone}
	ok := SearchParams{Phi: 60, SpliceEps: 50}
	nan := math.NaN()

	sharded := NewShardedStore(g, nil, ShardedConfig{Shards: 4, Halo: 60})
	sharded.IngestTrips(trips...)
	for name, v := range map[string]View{"snapshot": NewArchive(g, trips), "sharded": sharded.Current()} {
		c := NewSearchCache(0)
		search := func(qi, qj traj.GPSPoint, p SearchParams) []Reference {
			direct := References(v, qi, qj, p)
			memo := c.ReferencesOn(t.Context(), v, qi, qj, p, new(Searcher), nil)
			if !slices.Equal(direct, memo) {
				t.Fatalf("%s: memoized search disagrees with the direct one", name)
			}
			return memo
		}
		valid := search(qi, qj, ok)
		if len(valid) != 2 || valid[0].Spliced || !valid[1].Spliced {
			t.Fatalf("%s: well-formed pair = %+v, want one simple and one spliced reference", name, valid)
		}
		entries := c.Len()

		late := qi
		late.T = qj.T + 1
		for what, in := range map[string]struct {
			qi, qj traj.GPSPoint
			p      SearchParams
		}{
			"negative phi":   {qi, qj, SearchParams{Phi: -60, SpliceEps: 50}},
			"NaN phi":        {qi, qj, SearchParams{Phi: nan, SpliceEps: 50}},
			"duplicate time": {qi, traj.GPSPoint{Pt: qj.Pt, T: qi.T}, ok},
			"time reversed":  {late, qj, ok},
			"NaN time":       {qi, traj.GPSPoint{Pt: qj.Pt, T: nan}, ok},
			"same point":     {qi, qi, ok},
		} {
			if refs := search(in.qi, in.qj, in.p); len(refs) != 0 {
				t.Errorf("%s: %s yields %d references", name, what, len(refs))
			}
		}
		if c.Len() != entries {
			t.Errorf("%s: hostile inputs left %d entries in the memo", name, c.Len()-entries)
		}
		// A negative splice threshold is no splicing, not an inverted window.
		if refs := search(qi, qj, SearchParams{Phi: 60, SpliceEps: -50}); len(refs) != 1 || refs[0].Spliced {
			t.Errorf("%s: negative SpliceEps = %+v, want the simple reference alone", name, refs)
		}
		// NaN coordinates are in range of nothing.
		if refs := search(traj.GPSPoint{Pt: geo.Pt(nan, 0), T: qi.T}, qj, ok); len(refs) != 0 {
			t.Errorf("%s: NaN query coordinate yields %d references", name, len(refs))
		}
		// A later valid call is answered in full, whatever ran before it.
		if again := search(qi, qj, ok); !slices.Equal(again, valid) {
			t.Errorf("%s: valid pair after hostile ones = %+v, want %+v", name, again, valid)
		}
	}

	// An empty archive, and one holding a single one-point trajectory in range
	// of both query points (a legitimate, if degenerate, simple reference).
	if refs := References(NewArchive(g, nil), qi, qj, ok); len(refs) != 0 {
		t.Errorf("empty archive yields %d references", len(refs))
	}
	near := traj.GPSPoint{Pt: geo.Pt(60, 0), T: 30}
	one := NewArchive(g, []*traj.Trajectory{lineTraj("one", geo.Pt(55, 5))})
	want := oracleReferences(one, qi, near, ok, nil)
	checkAgainstOracle(t, "one-point trajectory", one, References(one, qi, near, ok), want)
	if len(want) != 1 || want[0].LenA != 1 {
		t.Errorf("one-point trajectory near both query points: oracle = %+v, want one single-point reference", want)
	}
}

// TestSnapshotWithinRadiusMatchesScan: the concrete convenience the benchmark
// ledger times is the visitor plus the radius test, over every segment, and
// selects nothing for a radius that is not a distance.
func TestSnapshotWithinRadiusMatchesScan(t *testing.T) {
	g, trips, queries := oracleWorld(13)
	st := NewStore(g, trips[:60], StoreConfig{CompactSegments: 1 << 20})
	st.IngestTrips(trips[60:120]...)
	st.IngestTrips(trips[120:]...)
	snap := st.Snapshot()
	for _, q := range queries {
		for _, p := range q.Points {
			for _, r := range []float64{0, 150, 500} {
				got, want := snap.WithinRadius(p.Pt, r), oracleWithinRadius(snap, p.Pt, r)
				sortRefs(got)
				if !slices.Equal(got, want) {
					t.Fatalf("WithinRadius(%v, %v): %d hits, scan %d", p.Pt, r, len(got), len(want))
				}
			}
		}
	}
	for _, r := range []float64{-1, math.NaN(), math.Inf(-1)} {
		if hits := snap.WithinRadius(queries[0].Points[0].Pt, r); hits != nil {
			t.Fatalf("WithinRadius(r=%v) = %d hits, want none", r, len(hits))
		}
	}

	// The grids under VisitBox, over degenerate extents and with awkward
	// boxes, against a scan of every point with the same closed-box test.
	g, _, _ = refWorld() // bbox (0,0)–(600,400)
	line := func(id string, from, step geo.Point, n int) *traj.Trajectory {
		tr := lineTraj(id)
		for i := 0; i < n; i++ {
			tr.Points = append(tr.Points, traj.GPSPoint{Pt: from.Add(step.Scale(float64(i))), T: float64(i)})
		}
		return tr
	}
	extents := map[string][]*traj.Trajectory{
		"one point":  {lineTraj("p", geo.Pt(50, 50))},
		"duplicates": {line("d", geo.Pt(70, 30), geo.Pt(0, 0), 40), lineTraj("e", geo.Pt(70, 30))},
		"horizontal": {line("h", geo.Pt(-50, 20), geo.Pt(7, 0), 100)},
		"vertical":   {line("v", geo.Pt(40, -30), geo.Pt(0, 5), 100)},
		// One corner only: three of four shards hold no point.
		"one corner": {line("c", geo.Pt(10, 10), geo.Pt(2, 1), 60), line("c2", geo.Pt(90, 10), geo.Pt(-1, 2), 60)},
		// Off-map noise on every side, clamped into the boundary cells.
		"off map": {line("o", geo.Pt(-900, -700), geo.Pt(30, 25), 80), lineTraj("far", geo.Pt(5000, 3000), geo.Pt(-4000, 200))},
	}
	nan, inf := math.NaN(), math.Inf(1)
	boxes := []geo.BBox{
		{Min: geo.Pt(0, 0), Max: geo.Pt(600, 400)},
		{Min: geo.Pt(-inf, -inf), Max: geo.Pt(inf, inf)},
		{Min: geo.Pt(60, 10), Max: geo.Pt(20, 50)},         // inverted in x
		{Min: geo.Pt(20, 50), Max: geo.Pt(60, 10)},         // inverted in y
		{Min: geo.Pt(70, 30), Max: geo.Pt(70, 30)},         // zero area, on a point
		{Min: geo.Pt(0, 20), Max: geo.Pt(600, 20)},         // zero area, along the horizontal line
		{Min: geo.Pt(40, 0), Max: geo.Pt(40, 400)},         // zero area, along the vertical line
		{Min: geo.Pt(500, 300), Max: geo.Pt(590, 390)},     // inside the map, away from every trip
		{Min: geo.Pt(7000, 7000), Max: geo.Pt(8000, 9000)}, // outside the map
		{Min: geo.Pt(-100, -100), Max: geo.Pt(45, 25)},     // straddling the map's corner
		{Min: geo.Pt(-1000, 15), Max: geo.Pt(20, 25)},      // straddling the map's edge
		{Min: geo.Pt(nan, 0), Max: geo.Pt(600, 400)},
		{Min: geo.Pt(0, 0), Max: geo.Pt(600, nan)},
		{Min: geo.Pt(-inf, -1), Max: geo.Pt(-1e308, 0)}, // reaching the huge graph's west vertex
	}
	check := func(name string, g *roadnet.Graph, trips []*traj.Trajectory) {
		st := NewShardedStore(g, nil, ShardedConfig{Shards: 4, Halo: 30})
		st.IngestTrips(trips[:1]...)
		st.IngestTrips(trips[1:]...)
		for _, v := range []*Snapshot{NewArchive(g, trips), st.Snapshot()} {
			for _, box := range boxes {
				var want, got []PointRef
				for ti, tr := range trips {
					for pi, p := range tr.Points {
						if box.Contains(p.Pt) {
							want = append(want, PointRef{Traj: ti, Idx: pi})
						}
					}
				}
				v.VisitBox(box, func(pt geo.Point, r PointRef) bool {
					if pt != pointOf(v, r) {
						t.Fatalf("%s, %d shards: VisitBox(%v) reported %v at %v, stored at %v", name, len(v.shards), box, r, pt, pointOf(v, r))
					}
					got = append(got, r)
					return true
				})
				sortRefs(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %d shards: VisitBox(%v) = %v, scan %v", name, len(v.shards), box, got, want)
				}
				seen := 0
				v.VisitBox(box, func(geo.Point, PointRef) bool { seen++; return seen < 2 })
				if seen != min(len(want), 2) {
					t.Fatalf("%s, %d shards: VisitBox(%v) stopped after %d of %d points, want 2", name, len(v.shards), box, seen, len(want))
				}
			}
		}
	}
	for name, trips := range extents {
		check(name, g, trips)
	}
	// A graph wider than a float64 can hold — its bbox width overflows to
	// +Inf, which once made the grid's cell count Inf/Inf = NaN and the
	// build panic — with a trip at both x extremes. JSON allows 1e308, so a
	// dataset file can carry it; the graph passes Validate.
	b := roadnet.NewBuilder()
	west, east, north := b.AddVertex(geo.Pt(-1e308, 0)), b.AddVertex(geo.Pt(1e308, 0)), b.AddVertex(geo.Pt(0, 1))
	b.AddBidirectional(west, north, 10, nil)
	b.AddBidirectional(north, east, 10, nil)
	huge := b.Build()
	if err := huge.Validate(); err != nil {
		t.Fatal(err)
	}
	check("huge extent", huge, []*traj.Trajectory{lineTraj("x", geo.Pt(-1e308, 0), geo.Pt(1e308, 0)), lineTraj("n", geo.Pt(0, 1))})
}
