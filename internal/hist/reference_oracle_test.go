package hist

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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
// of the view rather than View.VisitBox — so the oracle is also
// independent of the spatial index and of shard routing.

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

// tieWorld is a hand-built archive around one query pair, q_i = (−300, 0)
// and q_{i+1} = (300, 0), salted with every tie the search's orders must
// break exactly as the oracle's comparison sorts do:
//   - A side: "ta" runs from q_i to samples at X = +0.0 and X = −0.0, equal
//     under cmp.Compare, mirrored in Y so either one splices at the same
//     score; fill order (+0.0 first) must decide.
//   - B side: "tb" reaches q_{i+1} from two samples at X = 100, mirrored in Y
//     the same way; fill order must decide again.
//   - Shared canonical ranks: "ta" and "tb" have byte-identical twins, and
//     "through", a simple reference, has a twin that starts at the same
//     sample with as many samples but a different path (one canonKey).
//
// The trips come in an order that puts each twin's storage index on the
// other side of its original than bulk order does, ingested in two batches.
func tieWorld() (*roadnet.Graph, []*traj.Trajectory, *traj.Trajectory) {
	at := func(id string, pts ...geo.Point) *traj.Trajectory {
		tr := &traj.Trajectory{ID: id}
		for i, p := range pts {
			tr.Points = append(tr.Points, traj.GPSPoint{Pt: p, T: float64(i) * 10})
		}
		return tr
	}
	negZero := math.Copysign(0, -1)
	ta := at("ta", geo.Pt(-290, 0), geo.Pt(-150, 0), geo.Pt(0, 50), geo.Pt(negZero, -50))
	tb := at("tb", geo.Pt(100, 40), geo.Pt(100, -40), geo.Pt(200, 0), geo.Pt(290, 0))
	through := at("through", geo.Pt(-295, 5), geo.Pt(-100, 5), geo.Pt(100, 5), geo.Pt(295, 5))
	bend := at("through", geo.Pt(-295, 5), geo.Pt(-120, 30), geo.Pt(80, 30), geo.Pt(290, 8))
	trips := []*traj.Trajectory{bend, tb.Clone(), ta, through, tb, ta.Clone()}
	q := &traj.Trajectory{ID: "q", Points: []traj.GPSPoint{{Pt: geo.Pt(-300, 0), T: 0}, {Pt: geo.Pt(300, 0), T: 100}}}
	return roadnet.NewGrid(4, 4, 200, 15), trips, q
}

// TestReferenceOracleEquivalence: the near-set search returns exactly what
// the map-based search it replaced returns, on every view kind, across the
// parameter space — through the pooled entry point, and through one
// long-lived Searcher whose carried near sets and stamp tables survive from
// pair to pair (up a query, and down it), view to view and parameter set to
// parameter set. The simulated worlds are followed by tieWorld, whose ties
// (equal X at different fill positions, −0 against +0, trips sharing a
// canonical rank) the test checks did occur, and by wideWorld, whose join
// table is wide and nearly empty and whose pairs on the e-circle the squared
// distance alone would misjudge, and by the cell join's own cases
// (probeTieWorld, latticeWorld flat and not) at e from 1e-300 to +Inf. The
// splice's two read-outs must both run: a filled row without canonical twins
// in the simulated worlds, the interleaved rows of twins in tieWorld.
func TestReferenceOracleEquivalence(t *testing.T) {
	seeds := []int64{11, 12}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var carried, backward Searcher
	// plain and twins count the carried searches whose splice emitted
	// through each read-out (see emissionCases).
	var plain, twins int
	// check compares the search of every pair of q with the oracle, and
	// returns how many spliced references the oracle found.
	check := func(what string, v View, q *traj.Trajectory, p SearchParams) (spliced int) {
		wants := make([][]oracleRef, q.Len()-1)
		for i := range wants {
			qi, qj := q.Points[i], q.Points[i+1]
			what := fmt.Sprintf("%s %+v %s pair %d", what, p, q.ID, i)
			want := oracleReferences(v, qi, qj, p, nil)
			checkAgainstOracle(t, what, v, References(v, qi, qj, p), want)
			checkAgainstOracle(t, what+" (carried)", v, carried.references(v, qi, qj, p, nil, nil), want)
			for _, w := range want {
				if w.Spliced {
					spliced++
				}
			}
			if len(want) > 0 && want[len(want)-1].Spliced {
				pl, tw := emissionCases(&carried)
				plain, twins = plain+pl, twins+tw
			}
			wants[i] = want
		}
		// And back down the query, the order a worker eating a region from
		// its far end searches in.
		for i := len(wants) - 1; i >= 0; i-- {
			what := fmt.Sprintf("%s %+v %s pair %d (carried backward)", what, p, q.ID, i)
			checkAgainstOracle(t, what, v, backward.references(v, q.Points[i], q.Points[i+1], p, nil, nil), wants[i])
		}
		return spliced
	}
	for _, seed := range seeds {
		g, trips, queries := oracleWorld(seed)
		live := NewStore(g, trips[:40], StoreConfig{})
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
							spliced += check(fmt.Sprintf("seed %d %s", seed, name), v, q, p)
						}
					}
				}
			}
		}
		if spliced == 0 {
			t.Fatalf("seed %d: the oracle never spliced — the join went untested", seed)
		}
	}
	if plain == 0 {
		t.Fatal("no splice emitted a row of a trajectory without canonical twins")
	}
	// The passes the rewrite deleted were dead: the oracle still runs its
	// closing speedFeasible over every spliced reference and never rejects one.
	if oracleSpliceRecheckFired != 0 {
		t.Fatalf("the oracle's spliced speedFeasible re-check rejected %d references", oracleSpliceRecheckFired)
	}

	g, trips, q := tieWorld()
	live := NewStore(g, trips[:3], StoreConfig{})
	live.IngestTrips(trips[3:]...)
	sharded := NewShardedStore(g, nil, ShardedConfig{Shards: 4, Halo: 200})
	sharded.IngestTrips(trips[4:]...)
	sharded.IngestTrips(trips[:4]...)
	for name, v := range map[string]View{"bulk": NewArchive(g, trips), "live": live.Current(), "sharded": sharded.Current()} {
		for _, p := range []SearchParams{{Phi: 100, SpliceEps: 200, VMax: 20}, {Phi: 100, SpliceEps: 200, SpliceMinSimple: 3, VMax: 20}} {
			before := twins
			if spliced := check("ties "+name, v, q, p); spliced != 4 {
				t.Fatalf("ties %s %+v: the oracle spliced %d references, want 4 (ta and tb, twice each)", name, p, spliced)
			}
			if twins == before {
				t.Fatalf("ties %s %+v: the splice never interleaved the rows of ta and its twin", name, p)
			}
		}
		// The ties were there to break: twins adjacent in the near sets, and
		// sides holding equal X — −0 and +0 among them — at different fill
		// positions.
		var s Searcher
		s.references(v, q.Points[0], q.Points[1], SearchParams{Phi: 100, SpliceEps: 200, VMax: 20}, nil, nil)
		for k, hits := range s.own.hits {
			twins := false
			for i := 1; i < len(hits); i++ {
				twins = twins || hits[i].canon == hits[i-1].canon
			}
			if !twins {
				t.Fatalf("ties %s: near set %d = %+v holds no two trips of one canonical rank", name, k, hits)
			}
		}
		var posZero, negZero bool
		for _, p := range s.aside {
			posZero = posZero || p.pt.X == 0 && !math.Signbit(p.pt.X)
			negZero = negZero || p.pt.X == 0 && math.Signbit(p.pt.X)
		}
		equalX := func(side []sidePoint) bool {
			for i := 1; i < len(side); i++ {
				if side[i].pt.X == side[i-1].pt.X && side[i].rank == side[i-1].rank {
					return true
				}
			}
			return false
		}
		if !posZero || !negZero || !equalX(s.aside) || !equalX(s.bside) {
			t.Fatalf("ties %s: sides lack the ties (side A holds +0: %v, −0: %v; equal X within one trip: A %v, B %v)",
				name, posZero, negZero, equalX(s.aside), equalX(s.bside))
		}
	}

	g, trips, q = wideWorld()
	live = NewStore(g, trips[:60], StoreConfig{})
	live.IngestTrips(trips[60:]...)
	sharded = NewShardedStore(g, trips[70:], ShardedConfig{Shards: 4, Halo: 200})
	sharded.IngestTrips(trips[:70]...)
	for name, v := range map[string]View{"bulk": NewArchive(g, trips), "live": live.Current(), "sharded": sharded.Current()} {
		p := SearchParams{Phi: 100, SpliceEps: 200, VMax: 1000}
		if spliced := check("wide "+name, v, q, p); spliced != 12 {
			t.Fatalf("wide %s: the oracle spliced %d references, want 12", name, spliced)
		}
		var s Searcher
		s.references(v, q.Points[0], q.Points[1], p, nil, nil)
		filled := 0
		for _, w := range s.filled {
			filled += bits.OnesCount64(w)
		}
		if cells := len(s.arank) * len(s.brank); cells != 70*73 || filled != 12 {
			t.Fatalf("wide %s: the join filled %d of %d cells, want 12 of %d", name, filled, cells, 70*73)
		}
	}
	// The cell join's own cases: ties the row-major cell scan meets in the
	// wrong order, a B side of zero height and one far wider than e·√|B|,
	// each also at thresholds near both ends of the float range.
	for k, world := range []string{"probe ties", "flat", "lattice"} {
		g, trips, q := probeTieWorld()
		if k > 0 {
			g, trips, q = latticeWorld(world == "flat")
		}
		cut := len(trips) / 2
		live := NewStore(g, trips[:cut], StoreConfig{})
		live.IngestTrips(trips[cut:]...)
		sharded := NewShardedStore(g, trips[cut:], ShardedConfig{Shards: 4, Halo: 200})
		sharded.IngestTrips(trips[:cut]...)
		for name, v := range map[string]View{"bulk": NewArchive(g, trips), "live": live.Current(), "sharded": sharded.Current()} {
			for _, eps := range []float64{25, 200, 1e-300, 1e200, math.Inf(1)} {
				p := SearchParams{Phi: 50, SpliceEps: eps, VMax: 1000}
				if check(world+" "+name, v, q, p) == 0 {
					t.Fatalf("%s %s e=%g: the oracle never spliced", world, name, eps)
				}
				// Never more cells than side B has points; at e = 25 the
				// lattice sides spread over many.
				var s Searcher
				s.references(v, q.Points[0], q.Points[1], p, nil, nil)
				if cells := len(s.bstart) - 1; cells > len(s.bside) || k > 0 && eps == 25 && cells < 2 {
					t.Fatalf("%s %s e=%g: %d cells for %d side-B points", world, name, eps, cells, len(s.bside))
				}
			}
		}
	}
}

// probeTieWorld plants exact ties in d(p_a,q_i)+d(p_b,q_{i+1}) at different
// X, each met first in fill order by the side that is later in X: "ta"
// leaves q_i = (−300, 0) through (100, 300) and then (0, 400), "tb" reaches
// q_{i+1} = (300, 0) from (−100, 300) through (0, 400), all four 500 m from
// their query point. The four pairs within e = 200 m score 1000 each, and
// side B's three points share one cell: scanned in fill order, the join
// meets (100, 300)–(0, 400) first, while the rule keeps (0, 400)–(−100, 300).
func probeTieWorld() (*roadnet.Graph, []*traj.Trajectory, *traj.Trajectory) {
	ta := lineTraj("ta", geo.Pt(-290, 0), geo.Pt(100, 300), geo.Pt(0, 400))
	tb := lineTraj("tb", geo.Pt(-100, 300), geo.Pt(0, 400), geo.Pt(290, 0))
	q := &traj.Trajectory{ID: "q", Points: []traj.GPSPoint{{Pt: geo.Pt(-300, 0), T: 0}, {Pt: geo.Pt(300, 0), T: 100}}}
	return roadnet.NewGrid(4, 4, 200, 15), []*traj.Trajectory{tb, ta}, q
}

// latticeWorld is an archive whose splice sides sit on a lattice (X a
// multiple of 50, Y of 25), so distances, X and scores tie exactly and A
// and B samples coincide: 24 trips leave q_i = (−1000, 0) through one to
// three lattice points in [−900, 900] × [−300, 300], and 24 reach
// q_{i+1} = (1000, 0) from such points. When flat, side B lies on y = 0,
// a box of zero height; otherwise it is about 1900 × 600 m.
func latticeWorld(flat bool) (*roadnet.Graph, []*traj.Trajectory, *traj.Trajectory) {
	rng := rand.New(rand.NewSource(5))
	lattice := func(onAxis bool) geo.Point {
		y := float64(25 * (rng.Intn(25) - 12))
		if onAxis {
			y = 0
		}
		return geo.Pt(float64(50*(rng.Intn(37)-18)), y)
	}
	var trips []*traj.Trajectory
	for i := 0; i < 24; i++ {
		a := []geo.Point{geo.Pt(-995, float64(i%5-2))}
		var b []geo.Point
		for k := rng.Intn(3); k >= 0; k-- {
			a, b = append(a, lattice(false)), append(b, lattice(flat))
		}
		trips = append(trips, lineTraj(fmt.Sprintf("a%d", i), a...),
			lineTraj(fmt.Sprintf("b%d", i), append(b, geo.Pt(995, 0))...))
	}
	q := &traj.Trajectory{ID: "q", Points: []traj.GPSPoint{{Pt: geo.Pt(-1000, 0), T: 0}, {Pt: geo.Pt(1000, 0), T: 100}}}
	return roadnet.NewGrid(4, 4, 200, 15), trips, q
}

// emissionCases reports how s's last splice read its filled cells out: per
// key group of T_a from its first filled row on, a group of one row is read
// in table order (plain), one of several rows interleaved by key group of
// T_b; twins counts only groups that fill two rows or more.
func emissionCases(s *Searcher) (plain, twins int) {
	nb := len(s.brank)
	filledRows := func(a0, a1 int) (n int) {
		for a := a0; a < a1; a++ {
			if nextBit(s.filled, a*nb, (a+1)*nb) < (a+1)*nb {
				n++
			}
		}
		return n
	}
	for a := 0; a < len(s.arank); a++ {
		if filledRows(a, a+1) == 0 {
			continue
		}
		a1 := a + 1
		for a1 < len(s.arank) && s.arank[a1].canon == s.arank[a].canon {
			a1++
		}
		switch {
		case a1 == a+1:
			plain++
		case filledRows(a, a1) >= 2:
			twins++
		}
		a = a1 - 1
	}
	return plain, twins
}

// wideWorld is an archive whose splice join has wide sides that fill few
// cells: 70 trips leave q_i = (−3000, 0) and 73 reach q_{i+1} = (3000, 0),
// each over its own parallel street 1 km from the next, and only the street
// pairs that meet within e = 200 m at X = 0 splice — every seventh, plus one
// B trip that meets the seventh A trip beside its own B, and one of two that
// start on the e-circle around an A street's end. Its table has 70 × 73
// cells and 12 filled.
func wideWorld() (*roadnet.Graph, []*traj.Trajectory, *traj.Trajectory) {
	at := func(id string, pts ...geo.Point) *traj.Trajectory {
		tr := &traj.Trajectory{ID: id}
		for i, p := range pts {
			tr.Points = append(tr.Points, traj.GPSPoint{Pt: p, T: float64(i) * 10})
		}
		return tr
	}
	var trips []*traj.Trajectory
	street := func(i int) float64 { return float64(1000*i - 35000) }
	for i := 0; i < 70; i++ {
		y, meet := street(i), street(i)+500
		if i%7 == 0 {
			meet = y
		}
		trips = append(trips,
			at(fmt.Sprintf("a%d", i), geo.Pt(-2995+float64(i)/10, 0), geo.Pt(-1000, y), geo.Pt(0, y)),
			at(fmt.Sprintf("b%d", i), geo.Pt(0, meet), geo.Pt(1000, meet), geo.Pt(2995-float64(i)/10, 0)))
	}
	trips = append(trips, at("b-beside", geo.Pt(0, street(7)+100), geo.Pt(1000, street(7)+100), geo.Pt(2990, 0)))
	// Two more B trips start on the e-circle around the end of an A street,
	// where the squared distance and Dist (math.Hypot) disagree about e: the
	// one Dist puts within e of street 21 splices, the one it puts beyond e
	// of street 28 does not.
	rng := rand.New(rand.NewSource(1))
	for _, i := range []int{21, 28} {
		end := geo.Pt(0, street(i))
		for {
			a := rng.Float64() * math.Pi / 2
			q := geo.Pt(200*math.Cos(a), end.Y+200*math.Sin(a))
			if within := end.Dist(q) <= 200; within != (end.Dist2(q) <= 200*200) && within == (i == 21) {
				trips = append(trips, at(fmt.Sprintf("b-circle%d", i), q, geo.Pt(1000, q.Y), geo.Pt(2990, 0)))
				break
			}
		}
	}
	q := &traj.Trajectory{ID: "q", Points: []traj.GPSPoint{{Pt: geo.Pt(-3000, 0), T: 0}, {Pt: geo.Pt(3000, 0), T: 100}}}
	return roadnet.NewGrid(4, 4, 200, 15), trips, q
}

// TestSearcherSurvivesWrapAndGrowth: a warm Searcher whose stamp counter
// wraps mid-query, carried from pair to pair and across ingests that grow the
// archive's trajectory count (and with it the stamp and rank tables), answers
// every pair as a fresh Searcher does, and as the oracle does.
func TestSearcherSurvivesWrapAndGrowth(t *testing.T) {
	g, trips, queries := oracleWorld(14)
	st := NewStore(g, trips[:25], StoreConfig{})
	p := SearchParams{Phi: 500, SpliceEps: 200}
	var warm Searcher
	wraps := 0
	for lo := 25; ; lo += 70 {
		v := st.Current()
		for _, q := range queries {
			warm.cur = math.MaxUint32 - 1 // the pair's second stamp generation wraps
			for i := 0; i+1 < q.Len(); i++ {
				qi, qj := q.Points[i], q.Points[i+1]
				var fresh Searcher
				want := fresh.references(v, qi, qj, p, nil, nil)
				what := fmt.Sprintf("%d trips, %s pair %d", v.NumTrajs(), q.ID, i)
				if got := warm.references(v, qi, qj, p, nil, nil); !slices.Equal(got, want) {
					t.Fatalf("%s: warm searcher = %+v, fresh %+v", what, got, want)
				}
				checkAgainstOracle(t, what, v, want, oracleReferences(v, qi, qj, p, nil))
			}
			if warm.cur < math.MaxUint32-1 {
				wraps++
			}
		}
		if len(warm.rankHead) < v.NumTrajs() {
			t.Fatalf("rank table holds %d trips, the view %d", len(warm.rankHead), v.NumTrajs())
		}
		if lo >= len(trips) {
			break
		}
		st.IngestTrips(trips[lo:min(lo+70, len(trips))]...)
	}
	if wraps == 0 {
		t.Fatal("the stamp counter never wrapped")
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

	// A NaN sample past a trip's nn sample enters its splice side, since a NaN
	// distance never leaves the feasible lens; under an infinite speed budget
	// an infinite sample does too. The join must not panic, must splice no
	// such sample, and must still splice ta with tb.
	inf := math.Inf(1)
	odd := NewArchive(g, []*traj.Trajectory{ta, tb,
		lineTraj("nanA", geo.Pt(45, 15), geo.Pt(nan, 10), geo.Pt(200, 12)),
		lineTraj("nanB", geo.Pt(205, 25), geo.Pt(nan, 5), geo.Pt(210, nan), geo.Pt(345, 5)),
		lineTraj("infA", geo.Pt(55, -5), geo.Pt(inf, 0), geo.Pt(190, 5)),
		lineTraj("infB", geo.Pt(220, 0), geo.Pt(-inf, 7), geo.Pt(355, -5)),
	})
	for _, p := range []SearchParams{ok, {Phi: 60, SpliceEps: 50, VMax: inf}, {Phi: 60, SpliceEps: inf, VMax: inf}} {
		var s Searcher
		refs := s.references(odd, qi, qj, p, nil, nil)
		nonFinite := func(side []sidePoint) (n int) {
			for _, sp := range side {
				if !finite(sp.pt) {
					n++
				}
			}
			return n
		}
		want := 3 // the NaN samples
		if p.VMax == inf {
			want += 2
		}
		if got := nonFinite(s.aside) + nonFinite(s.bside); got != want {
			t.Fatalf("odd samples, %+v: sides hold %d non-finite samples, want %d", p, got, want)
		}
		spliced := false
		for _, r := range refs {
			a, b := r.Runs(odd)
			if r.Spliced && (!finite(a[len(a)-1].Pt) || !finite(b[0].Pt)) {
				t.Fatalf("odd samples, %+v: %+v splices at a non-finite sample", p, r)
			}
			spliced = spliced || r.Spliced && r.SourceA == 0 && r.SourceB == 1
		}
		if !spliced {
			t.Fatalf("odd samples, %+v: ta and tb no longer splice: %+v", p, refs)
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

// finite reports whether both of p's coordinates are finite: x−x is NaN
// exactly when x is NaN or ±Inf.
func finite(p geo.Point) bool {
	return !math.IsNaN(p.X-p.X) && !math.IsNaN(p.Y-p.Y)
}

// TestSnapshotWithinRadiusMatchesScan: the concrete convenience the benchmark
// ledger times is the visitor plus the radius test, over every segment, and
// selects nothing for a radius that is not a distance.
func TestSnapshotWithinRadiusMatchesScan(t *testing.T) {
	g, trips, queries := oracleWorld(13)
	st := NewStore(g, trips[:60], StoreConfig{})
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
