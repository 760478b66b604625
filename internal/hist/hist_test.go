package hist

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

// lineTraj builds a trajectory through the given points with uniform 20 s
// spacing.
func lineTraj(id string, pts ...geo.Point) *traj.Trajectory {
	tr := &traj.Trajectory{ID: id}
	for i, p := range pts {
		tr.Points = append(tr.Points, traj.GPSPoint{Pt: p, T: float64(i) * 20})
	}
	return tr
}

// pointOf reads the location of the archive point r names from its
// trajectory, independently of the grids.
func pointOf(v View, r PointRef) geo.Point { return v.Traj(r.Traj).Points[r.Idx].Pt }

// refPoints materializes a reference's points: its two runs, concatenated.
func refPoints(v View, r Reference) []traj.GPSPoint {
	return slices.Concat(r.Runs(v))
}

// refWorld builds a small fixture: a 5×7 grid (speed 15 m/s) and a query
// pair qi=(50,0,t=0), qj=(350,0,t=60) so the speed budget is 900 m.
func refWorld() (*roadnet.Graph, traj.GPSPoint, traj.GPSPoint) {
	g := roadnet.NewGrid(5, 7, 100, 15)
	qi := traj.GPSPoint{Pt: geo.Pt(50, 0), T: 0}
	qj := traj.GPSPoint{Pt: geo.Pt(350, 0), T: 60}
	return g, qi, qj
}

func TestSimpleReference(t *testing.T) {
	g, qi, qj := refWorld()
	// T1: straight along the bottom street, passing both points.
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	// T2: near qi only.
	t2 := lineTraj("t2", geo.Pt(40, 20), geo.Pt(40, 200), geo.Pt(40, 400))
	a := NewArchive(g, []*traj.Trajectory{t1, t2})
	refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 0})
	if len(refs) != 1 {
		t.Fatalf("references = %d, want 1", len(refs))
	}
	r := refs[0]
	if r.Spliced || r.SourceA != 0 {
		t.Fatalf("reference = %+v", r)
	}
	// Sub-trajectory brackets [nn(qi), nn(qj)] = points at x=100..300... the
	// nearest to qi=(50,0) is x=0 or x=100 (both 51.0 vs 51.0)? x=0 is
	// dist sqrt(50²+10²)=51, x=100 same; ties keep the first.
	pts := refPoints(a, r)
	if len(pts) < 3 {
		t.Fatalf("sub-trajectory too short: %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.Pt.Dist(qi.Pt) > 60 || last.Pt.Dist(qj.Pt) > 60 {
		t.Fatal("condition 2 violated by returned reference")
	}
}

func TestReferenceDirectionality(t *testing.T) {
	g, qi, qj := refWorld()
	// Travels the right street but the wrong way (qj -> qi).
	back := lineTraj("back", geo.Pt(400, 10), geo.Pt(300, 10), geo.Pt(200, 10), geo.Pt(100, 10), geo.Pt(0, 10))
	a := NewArchive(g, []*traj.Trajectory{back})
	refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 0})
	if len(refs) != 0 {
		t.Fatalf("reverse trajectory accepted as reference: %d", len(refs))
	}
}

func TestReferenceSpeedFeasibility(t *testing.T) {
	g, qi, qj := refWorld()
	// Passes both points but detours through (200,500):
	// d+d = 527+527 ≈ 1054 > budget 900 -> condition 3 fails (like T4 in
	// Figure 3a).
	detour := lineTraj("detour", geo.Pt(50, 10), geo.Pt(200, 500), geo.Pt(350, 10))
	a := NewArchive(g, []*traj.Trajectory{detour})
	if refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 0}); len(refs) != 0 {
		t.Fatalf("speed-infeasible trajectory accepted: %d", len(refs))
	}
	// A milder detour through (200,300): 540+540=... d((200,300),(50,0)) =
	// sqrt(150²+300²)=335, symmetric -> 670 < 900: accepted.
	mild := lineTraj("mild", geo.Pt(50, 10), geo.Pt(200, 300), geo.Pt(350, 10))
	a2 := NewArchive(g, []*traj.Trajectory{mild})
	if refs := References(a2, qi, qj, SearchParams{Phi: 60, SpliceEps: 0}); len(refs) != 1 {
		t.Fatalf("feasible detour rejected: %d", len(refs))
	}
}

func TestPhiRadiusFiltering(t *testing.T) {
	g, qi, qj := refWorld()
	// Passes 80 m from qi: inside φ=100, outside φ=60 (like T3 in Fig. 3a).
	far := lineTraj("far", geo.Pt(50, 80), geo.Pt(200, 80), geo.Pt(350, 80))
	a := NewArchive(g, []*traj.Trajectory{far})
	if refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 0}); len(refs) != 0 {
		t.Fatal("φ=60 should exclude the 80 m-away trajectory")
	}
	if refs := References(a, qi, qj, SearchParams{Phi: 100, SpliceEps: 0}); len(refs) != 1 {
		t.Fatal("φ=100 should include the 80 m-away trajectory")
	}
}

func TestSplicedReference(t *testing.T) {
	g, qi, qj := refWorld()
	// Ta: from qi to the middle, stops. Tb: from the middle to qj.
	// They overlap near (200, 10): splicing distance ~20 m.
	ta := lineTraj("ta", geo.Pt(40, 10), geo.Pt(120, 10), geo.Pt(200, 10))
	tb := lineTraj("tb", geo.Pt(210, 20), geo.Pt(280, 10), geo.Pt(350, 15))
	a := NewArchive(g, []*traj.Trajectory{ta, tb})
	// Without splicing: no references at all.
	if refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 0}); len(refs) != 0 {
		t.Fatal("no simple reference expected")
	}
	refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 50})
	if len(refs) != 1 {
		t.Fatalf("spliced references = %d, want 1", len(refs))
	}
	r := refs[0]
	if !r.Spliced || r.SourceA != 0 || r.SourceB != 1 {
		t.Fatalf("spliced ref = %+v", r)
	}
	// The virtual trajectory still satisfies Definition 6's conditions.
	pts := refPoints(a, r)
	first, last := pts[0], pts[len(pts)-1]
	if first.Pt.Dist(qi.Pt) > 60 || last.Pt.Dist(qj.Pt) > 60 {
		t.Fatal("spliced reference endpoints out of φ")
	}
	// Too-small e rejects the splice.
	if refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 5}); len(refs) != 0 {
		t.Fatal("e=5 should reject the 20 m splice gap")
	}
}

// TestSplicedPlaneSweepDuplicateXAtWindowEdge pins the plane-sweep join's
// boundary handling: b-side points with duplicate X coordinates sitting
// exactly on the ε window edges (pa.X−ε and pa.X+ε) must all be examined —
// the sweep's lower pointer may not skip past equal-X duplicates, and both
// window edges are inclusive so a pair at Euclidean distance exactly ε
// splices. Whether a boundary point joins is then decided by the true
// distance filter, not by which duplicate the sort happened to put first.
func TestSplicedPlaneSweepDuplicateXAtWindowEdge(t *testing.T) {
	g, qi, qj := refWorld()
	// A-side: near qi only; its point (200,10) is the sweep anchor, so with
	// ε=60 the X window is exactly [140, 260].
	ta := lineTraj("ta", geo.Pt(40, 10), geo.Pt(200, 10))
	// Two b-side trajectories share X=140 — duplicates straddling the lower
	// window edge. lowOK is at distance exactly ε from the anchor (60 m in X,
	// 0 in Y); lowFar has the same X but is 84.9 m away, past ε.
	lowOK := lineTraj("lowOK", geo.Pt(140, 10), geo.Pt(350, 20))
	lowFar := lineTraj("lowFar", geo.Pt(140, 70), geo.Pt(350, 40))
	// And one at the upper window edge X=260, again at distance exactly ε.
	upOK := lineTraj("upOK", geo.Pt(260, 10), geo.Pt(350, 30))
	a := NewArchive(g, []*traj.Trajectory{ta, lowOK, lowFar, upOK})

	refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 60})
	if len(refs) != 2 {
		t.Fatalf("spliced references = %d, want 2 (both exact-ε edge pairs): %+v",
			len(refs), refs)
	}
	got := map[int32]bool{}
	for _, r := range refs {
		if !r.Spliced || r.SourceA != 0 {
			t.Fatalf("unexpected reference %+v", r)
		}
		got[r.SourceB] = true
	}
	if !got[1] || !got[3] {
		t.Fatalf("spliced partners = %v, want lowOK (1) and upOK (3)", got)
	}
	// Shrinking ε below the exact boundary distance drops both pairs: the
	// two accepted splices really did sit on the window edge.
	if refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 59.9}); len(refs) != 0 {
		t.Fatalf("ε=59.9 should reject the exact-60 m pairs, got %d", len(refs))
	}
}

func TestSplicedPairMinimizesDistanceSum(t *testing.T) {
	g, qi, qj := refWorld()
	// Ta and Tb overlap at two places; the chosen pair must minimize
	// d(pa,qi)+d(pb,qj), i.e. splice as early as possible on both.
	ta := lineTraj("ta", geo.Pt(40, 10), geo.Pt(150, 10), geo.Pt(250, 10))
	tb := lineTraj("tb", geo.Pt(160, 15), geo.Pt(255, 15), geo.Pt(350, 12))
	a := NewArchive(g, []*traj.Trajectory{ta, tb})
	refs := References(a, qi, qj, SearchParams{Phi: 60, SpliceEps: 30})
	if len(refs) != 1 {
		t.Fatalf("refs = %d", len(refs))
	}
	// Expected splice: pa=(150,10), pb=(160,15) — not the later overlap.
	found, pts := false, refPoints(a, refs[0])
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1].Pt, pts[i].Pt
		if a.Equal(geo.Pt(150, 10), 1e-9) && b.Equal(geo.Pt(160, 15), 1e-9) {
			found = true
		}
	}
	if !found {
		t.Fatalf("splice not at the earliest overlap: %+v", pts)
	}
}

func TestPreprocess(t *testing.T) {
	// A log with a long stay in the middle becomes two trips.
	log := &traj.Trajectory{ID: "log"}
	tt := 0.0
	for x := 0.0; x <= 1000; x += 100 {
		log.Points = append(log.Points, traj.GPSPoint{Pt: geo.Pt(x, 0), T: tt})
		tt += 15
	}
	for i := 0; i < 20; i++ {
		log.Points = append(log.Points, traj.GPSPoint{Pt: geo.Pt(1001, 1), T: tt})
		tt += 120
	}
	for y := 100.0; y <= 1000; y += 100 {
		log.Points = append(log.Points, traj.GPSPoint{Pt: geo.Pt(1000, y), T: tt})
		tt += 15
	}
	trips := Preprocess([]*traj.Trajectory{log}, traj.StayPointParams{DistThreshold: 150, TimeThreshold: 600}, 3, 0)
	if len(trips) != 2 {
		t.Fatalf("trips = %d, want 2", len(trips))
	}
	// With outlier removal, a teleporting fix disappears first.
	jumpy := log.Clone()
	jumpy.Points[3].Pt = geo.Pt(90000, 90000)
	cleaned := Preprocess([]*traj.Trajectory{jumpy}, traj.StayPointParams{DistThreshold: 150, TimeThreshold: 600}, 3, 50)
	for _, trip := range cleaned {
		for _, p := range trip.Points {
			if p.Pt.Equal(geo.Pt(90000, 90000), 1) {
				t.Fatal("outlier survived preprocessing")
			}
		}
	}
}

// TestReferencesOnSimulatedCity is the integration check: queries over a
// simulated archive find references, and larger φ never finds fewer.
func TestReferencesOnSimulatedCity(t *testing.T) {
	cfg := sim.DefaultCityConfig()
	cfg.Rows, cfg.Cols = 12, 12
	cfg.Hotspots = 6
	city := sim.GenerateCity(cfg, 51)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = 200
	fcfg.Seed = 51
	ds := sim.BuildDataset(city, fcfg)
	a := NewArchive(city.Graph, ds.Archive)

	rng := rand.New(rand.NewSource(3))
	qc, ok := ds.GenQuery(5000, 180, 15, fcfg, rng)
	if !ok {
		t.Fatal("GenQuery failed")
	}
	totalSmall, totalLarge := 0, 0
	for i := 1; i < qc.Query.Len(); i++ {
		qi, qj := qc.Query.Points[i-1], qc.Query.Points[i]
		small := References(a, qi, qj, SearchParams{Phi: 200, SpliceEps: 100})
		large := References(a, qi, qj, SearchParams{Phi: 600, SpliceEps: 100})
		totalSmall += len(small)
		totalLarge += len(large)
	}
	if totalLarge == 0 {
		t.Fatal("no references found on the simulated archive")
	}
	if totalLarge < totalSmall {
		t.Fatalf("larger φ found fewer references: %d < %d", totalLarge, totalSmall)
	}
}

func BenchmarkReferenceSearch(b *testing.B) {
	cfg := sim.DefaultCityConfig()
	cfg.Rows, cfg.Cols = 12, 12
	city := sim.GenerateCity(cfg, 53)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = 300
	ds := sim.BuildDataset(city, fcfg)
	a := NewArchive(city.Graph, ds.Archive)
	rng := rand.New(rand.NewSource(1))
	qc, ok := ds.GenQuery(5000, 180, 15, fcfg, rng)
	if !ok {
		b.Fatal("GenQuery failed")
	}
	qi, qj := qc.Query.Points[0], qc.Query.Points[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		References(a, qi, qj, SearchParams{Phi: 500, SpliceEps: 200, SpliceMinSimple: 8})
	}
}

// TestReferenceSize: a Reference is the unit the reference-search memo
// retains (~80 per query pair) and the memo's byte bound counts it at
// unsafe.Sizeof, so it must stay a run — at most 32 bytes and no pointer into
// anything (a pointer would also mean it owns or pins storage).
func TestReferenceSize(t *testing.T) {
	if got := unsafe.Sizeof(Reference{}); got > 32 {
		t.Fatalf("unsafe.Sizeof(Reference{}) = %d, want <= 32", got)
	}
	rt := reflect.TypeOf(Reference{})
	for i := 0; i < rt.NumField(); i++ {
		switch k := rt.Field(i).Type.Kind(); k {
		case reflect.Int32, reflect.Bool:
		default:
			t.Fatalf("Reference.%s is a %v: the struct must hold no pointer", rt.Field(i).Name, k)
		}
	}
}
