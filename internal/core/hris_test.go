package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

// world bundles a simulated dataset with an HRIS engine for tests. p is the
// parameter set tests pass (and may tweak) per call — the engine itself is
// immutable.
type world struct {
	ds  *sim.Dataset
	eng *Engine
	g   *roadnet.Graph
	p   Params
	rng *rand.Rand
	cfg sim.FleetConfig
}

func newWorld(t testing.TB, trips int, seed int64) *world {
	t.Helper()
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 14, 14
	ccfg.Hotspots = 7
	city := sim.GenerateCity(ccfg, seed)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = trips
	fcfg.Seed = seed
	ds := sim.BuildDataset(city, fcfg)
	arch := hist.NewArchive(city.Graph, ds.Archive)
	return &world{
		ds:  ds,
		eng: NewEngine(arch, DefaultParams()),
		g:   city.Graph,
		p:   DefaultParams(),
		rng: rand.New(rand.NewSource(seed + 1000)),
		cfg: fcfg,
	}
}

// exec builds a one-off invocation context for tests poking at pipeline
// internals directly.
func (w *world) exec() exec {
	x := w.eng.newExec(context.Background(), w.p, w.eng.src.Current())
	x.sc = newPairScratch()
	return x
}

// accuracy is the A_L metric restated locally (full version in internal/eval):
// length of common segments over max route length.
func accuracy(g *roadnet.Graph, truth, inferred roadnet.Route) float64 {
	in := make(map[roadnet.EdgeID]bool, len(inferred))
	for _, e := range inferred {
		in[e] = true
	}
	var common float64
	for _, e := range truth {
		if in[e] {
			common += g.Seg(e).Length
		}
	}
	tl, il := truth.Length(g), inferred.Length(g)
	max := tl
	if il > max {
		max = il
	}
	if max == 0 {
		return 0
	}
	return common / max
}

func TestInferRoutesEndToEnd(t *testing.T) {
	w := newWorld(t, 400, 61)
	var accSum float64
	n := 0
	for trial := 0; trial < 3; trial++ {
		qc, ok := w.ds.GenQuery(8000, 180, 15, w.cfg, w.rng)
		if !ok {
			t.Fatal("GenQuery failed")
		}
		res, err := w.eng.InferRoutes(qc.Query, w.p)
		if err != nil {
			t.Fatalf("InferRoutes: %v", err)
		}
		if len(res.Routes) == 0 {
			t.Fatal("no routes")
		}
		top := res.Routes[0]
		if !top.Route.Valid(w.g) {
			t.Fatal("top route invalid")
		}
		accSum += accuracy(w.g, qc.Truth, top.Route)
		n++
		// Scores are sorted.
		for i := 1; i < len(res.Routes); i++ {
			if res.Routes[i].Score > res.Routes[i-1].Score+1e-12 {
				t.Fatal("routes not sorted by score")
			}
		}
		// Pair stats are recorded for every pair.
		if len(res.Pairs) != qc.Query.Len()-1 {
			t.Fatalf("pair stats: %d for %d pairs", len(res.Pairs), qc.Query.Len()-1)
		}
	}
	if mean := accSum / float64(n); mean < 0.5 {
		t.Errorf("mean top-1 accuracy %.2f below 0.5 over %d well-covered queries", mean, n)
	}
}

// TestHRISBeatsShortestPathBaseline asserts the paper's core claim in
// miniature: on skewed traffic, history-based inference beats a pure
// shortest-path reconstruction when drivers don't take the shortest route.
func TestHRISBeatsShortestPathBaseline(t *testing.T) {
	w := newWorld(t, 500, 63)
	var hrisSum, spSum float64
	n := 0
	for trial := 0; trial < 5; trial++ {
		qc, ok := w.ds.GenQuery(8000, 240, 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		res, err := w.eng.InferRoutes(qc.Query, w.p)
		if err != nil {
			continue
		}
		hrisSum += accuracy(w.g, qc.Truth, res.Routes[0].Route)
		// Baseline: stitch query points with shortest paths.
		var locs []roadnet.Location
		for _, p := range qc.Query.Points {
			if l, ok := w.g.LocationOf(p.Pt); ok {
				locs = append(locs, l)
			}
		}
		var sp roadnet.Route
		for i := 1; i < len(locs); i++ {
			part, _, ok := w.g.PathBetweenLocations(locs[i-1], locs[i])
			if !ok {
				continue
			}
			if joined, ok := sp.Concat(w.g, part); ok {
				sp = joined
			}
		}
		spSum += accuracy(w.g, qc.Truth, sp)
		n++
	}
	if n == 0 {
		t.Fatal("no successful trials")
	}
	t.Logf("HRIS %.3f vs shortest-path %.3f over %d queries", hrisSum/float64(n), spSum/float64(n), n)
	if hrisSum < spSum {
		t.Errorf("HRIS (%.3f) worse than shortest-path baseline (%.3f)", hrisSum/float64(n), spSum/float64(n))
	}
}

func TestInferRoutesDegenerate(t *testing.T) {
	w := newWorld(t, 50, 65)
	if _, err := w.eng.InferRoutes(&traj.Trajectory{}, w.p); err == nil {
		t.Fatal("empty query accepted")
	}
	one := &traj.Trajectory{Points: []traj.GPSPoint{{T: 0}}}
	if _, err := w.eng.InferRoutes(one, w.p); err == nil {
		t.Fatal("single-point query accepted")
	}
}

// TestInferRoutesEmptyArchive: with no history at all, the fallback
// shortest-path local routes keep the system total.
func TestInferRoutesEmptyArchive(t *testing.T) {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 10, 10
	city := sim.GenerateCity(ccfg, 67)
	arch := hist.NewArchive(city.Graph, nil)
	eng := NewEngine(arch, DefaultParams())
	rng := rand.New(rand.NewSource(9))
	route, ok := city.TripOfLength(4000, 2, 1.5, rng)
	if !ok {
		t.Fatal("TripOfLength failed")
	}
	motion := sim.DefaultMotion()
	motion.Interval = 240
	q := sim.SimulateTrip(city.Graph, route, "q", 0, motion, rng)
	res, err := eng.InferRoutes(q, DefaultParams())
	if err != nil {
		t.Fatalf("InferRoutes on empty archive: %v", err)
	}
	for _, st := range res.Pairs {
		if !st.UsedFall {
			t.Fatal("expected fallback on empty archive")
		}
	}
	if !res.Routes[0].Route.Valid(city.Graph) {
		t.Fatal("fallback route invalid")
	}
}

func TestMethodString(t *testing.T) {
	if MethodTGI.String() != "tgi" || MethodNNI.String() != "nni" || MethodHybrid.String() != "hybrid" {
		t.Fatal("Method.String wrong")
	}
}

// TestInferRoutesOnCurvedCity drives HRIS end to end on a network whose
// side streets have curved polyline shapes, exercising the polyline
// projection paths in candidate search and route handling.
func TestInferRoutesOnCurvedCity(t *testing.T) {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 12, 12
	ccfg.Hotspots = 6
	ccfg.CurvedStreets = true
	city := sim.GenerateCity(ccfg, 171)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = 300
	fcfg.Seed = 171
	ds := sim.BuildDataset(city, fcfg)
	eng := NewEngine(hist.NewArchive(city.Graph, ds.Archive), DefaultParams())
	rng := rand.New(rand.NewSource(9))
	qc, ok := ds.GenQuery(6000, 180, 15, fcfg, rng)
	if !ok {
		t.Fatal("GenQuery failed")
	}
	res, err := eng.InferRoutes(qc.Query, DefaultParams())
	if err != nil {
		t.Fatalf("InferRoutes on curved city: %v", err)
	}
	if !res.Routes[0].Route.Valid(city.Graph) {
		t.Fatal("invalid route")
	}
	if acc := accuracy(city.Graph, qc.Truth, res.Routes[0].Route); acc < 0.3 {
		t.Errorf("curved-city accuracy %.2f suspiciously low", acc)
	}
}
