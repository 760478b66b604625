package core

import (
	"math"
	"testing"

	"repro/internal/traj"
)

// pickPair returns a consecutive pair from a fresh low-rate query that has
// at least minRefs references under the system's parameters.
func pickPair(t *testing.T, w *world, interval float64, minRefs int) (traj.GPSPoint, traj.GPSPoint) {
	t.Helper()
	for trial := 0; trial < 20; trial++ {
		qc, ok := w.ds.GenQuery(6000, interval, 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		for i := 1; i < qc.Query.Len(); i++ {
			qi, qj := qc.Query.Points[i-1], qc.Query.Points[i]
			_, st := w.eng.PairLocalRoutes(qi, qj, MethodTGI, w.p)
			if st.Refs >= minRefs {
				return qi, qj
			}
		}
	}
	t.Skip("no reference-rich pair found")
	return traj.GPSPoint{}, traj.GPSPoint{}
}

func TestTGIProducesConnectedLocalRoutes(t *testing.T) {
	w := newWorld(t, 400, 71)
	qi, qj := pickPair(t, w, 180, 3)
	locals, st := w.eng.PairLocalRoutes(qi, qj, MethodTGI, w.p)
	if len(locals) == 0 {
		t.Fatal("TGI produced no local routes")
	}
	if st.Method != MethodTGI {
		t.Fatal("stats method wrong")
	}
	for _, lr := range locals {
		if !lr.Route.Valid(w.g) {
			t.Fatalf("invalid TGI route %v", lr.Route)
		}
		if lr.Popularity < 0 {
			t.Fatal("negative popularity")
		}
		// Route actually connects the query pair's neighborhoods: its first
		// edge is near qi, its last near qj.
		first := w.g.Seg(lr.Route[0])
		last := w.g.Seg(lr.Route[len(lr.Route)-1])
		if first.Shape.Dist(qi.Pt) > w.p.Phi {
			t.Fatalf("route starts %0.f m from qi", first.Shape.Dist(qi.Pt))
		}
		if last.Shape.Dist(qj.Pt) > w.p.Phi {
			t.Fatalf("route ends %0.f m from qj", last.Shape.Dist(qj.Pt))
		}
	}
	// Sorted by popularity.
	for i := 1; i < len(locals); i++ {
		if locals[i].Popularity > locals[i-1].Popularity+1e-12 {
			t.Fatal("local routes not sorted by popularity")
		}
	}
}

func TestNNIProducesConnectedLocalRoutes(t *testing.T) {
	w := newWorld(t, 400, 73)
	qi, qj := pickPair(t, w, 180, 3)
	locals, st := w.eng.PairLocalRoutes(qi, qj, MethodNNI, w.p)
	if len(locals) == 0 {
		t.Fatal("NNI produced no local routes")
	}
	if st.Method != MethodNNI {
		t.Fatal("stats method wrong")
	}
	for _, lr := range locals {
		if !lr.Route.Valid(w.g) {
			t.Fatalf("invalid NNI route %v", lr.Route)
		}
	}
}

// TestTGIAndNNIAgreeOnTopRoute: on a dense, well-supported pair both
// methods should find substantially overlapping best routes.
func TestTGIAndNNIAgreeOnTopRoute(t *testing.T) {
	w := newWorld(t, 600, 75)
	qi, qj := pickPair(t, w, 180, 6)
	tgi, _ := w.eng.PairLocalRoutes(qi, qj, MethodTGI, w.p)
	nni, _ := w.eng.PairLocalRoutes(qi, qj, MethodNNI, w.p)
	if len(tgi) == 0 || len(nni) == 0 {
		t.Skip("one method found nothing")
	}
	// The two methods rank alternatives differently; agreement means NNI's
	// best route appears (substantially) somewhere in TGI's route set.
	best := 0.0
	for _, lr := range tgi {
		if ov := accuracy(w.g, lr.Route, nni[0].Route); ov > best {
			best = ov
		}
	}
	if best < 0.3 {
		t.Errorf("NNI top route overlaps TGI's set at most %.2f", best)
	}
}

func TestHybridSwitchesOnDensity(t *testing.T) {
	w := newWorld(t, 400, 77)
	qi, qj := pickPair(t, w, 180, 2)
	// Force hybrid with extreme thresholds and observe the method choice.
	w.p.Tau = 0 // every density >= 0: always TGI
	_, st := w.eng.PairLocalRoutes(qi, qj, MethodHybrid, w.p)
	if st.Method != MethodTGI {
		t.Fatalf("tau=0 chose %v", st.Method)
	}
	w.p.Tau = math.Inf(1) // never dense enough: always NNI
	_, st = w.eng.PairLocalRoutes(qi, qj, MethodHybrid, w.p)
	if st.Method != MethodNNI {
		t.Fatalf("tau=inf chose %v", st.Method)
	}
	w.p.Tau = DefaultParams().Tau
}

// TestGraphReductionPreservesTopRoute: reduction is a performance
// optimization; the produced local route set must not get worse (the top
// route survives).
func TestGraphReductionPreservesTopRoute(t *testing.T) {
	w := newWorld(t, 400, 79)
	qi, qj := pickPair(t, w, 180, 3)
	w.p.GraphReduction = true
	withRed, _ := w.eng.PairLocalRoutes(qi, qj, MethodTGI, w.p)
	w.p.GraphReduction = false
	withoutRed, _ := w.eng.PairLocalRoutes(qi, qj, MethodTGI, w.p)
	if len(withRed) == 0 || len(withoutRed) == 0 {
		t.Skip("no routes to compare")
	}
	// Reduction preserves shortest-path *distances* on the traverse graph,
	// but a removed direct link makes Yen's paths pass through the
	// intermediate traverse edge, so the projected physical routes can
	// differ in detail. The top routes must still be substantially the
	// same corridor.
	if ov := accuracy(w.g, withoutRed[0].Route, withRed[0].Route); ov < 0.5 {
		t.Errorf("reduction changed the top route (overlap %.2f)", ov)
	}
}

// TestSubstructureSharingPreservesRoutes: sharing is a performance
// optimization for NNI; the top route should be stable.
func TestSubstructureSharingPreservesRoutes(t *testing.T) {
	w := newWorld(t, 400, 81)
	qi, qj := pickPair(t, w, 180, 3)
	w.p.ShareSubstructures = true
	shared, _ := w.eng.PairLocalRoutes(qi, qj, MethodNNI, w.p)
	w.p.ShareSubstructures = false
	unshared, _ := w.eng.PairLocalRoutes(qi, qj, MethodNNI, w.p)
	if len(shared) == 0 || len(unshared) == 0 {
		t.Skip("no routes to compare")
	}
	// Sharing memoizes successor lists with the α of first expansion, so
	// the trace sets legitimately differ in detail (the paper shares the
	// same way); the shared run's best route must still appear
	// substantially within the unshared run's set.
	best := 0.0
	for _, lr := range unshared {
		if ov := accuracy(w.g, lr.Route, shared[0].Route); ov > best {
			best = ov
		}
	}
	if best < 0.4 {
		t.Errorf("sharing changed routes too much (best overlap %.2f)", best)
	}
}

func TestPairStatsDensity(t *testing.T) {
	w := newWorld(t, 300, 83)
	qi, qj := pickPair(t, w, 180, 1)
	_, st := w.eng.PairLocalRoutes(qi, qj, MethodTGI, w.p)
	if st.Points > 0 && st.Density <= 0 {
		t.Fatalf("density = %v with %d points", st.Density, st.Points)
	}
}

// pairStatsAgree runs fresh queries through InferRoutes under p and, for
// every pair that passes want, checks that PairLocalRoutes — the same pair
// stage, minus the fallback — reports the same reference statistics. It
// returns how many pairs passed want.
func pairStatsAgree(t *testing.T, w *world, p Params, want func(PairStats) bool) int {
	t.Helper()
	checked := 0
	for trial := 0; trial < 20 && checked < 5; trial++ {
		qc, ok := w.ds.GenQuery(6000, 240, 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		res, err := w.eng.InferRoutes(qc.Query, p)
		if err != nil {
			t.Fatalf("InferRoutes: %v", err)
		}
		for i, full := range res.Pairs {
			if !want(full) {
				continue
			}
			checked++
			_, st := w.eng.PairLocalRoutes(qc.Query.Points[i], qc.Query.Points[i+1], p.Method, p)
			if st.Refs != full.Refs || st.Spliced != full.Spliced || st.Points != full.Points {
				t.Fatalf("pair %d: PairLocalRoutes saw %d refs (%d spliced, %d points), InferRoutes %d (%d, %d)",
					i, st.Refs, st.Spliced, st.Points, full.Refs, full.Spliced, full.Points)
			}
		}
	}
	return checked
}

// TestPairLocalRoutesCountsSpliced: a pair whose references include spliced
// ones (Definition 7) reports them through PairLocalRoutes too.
func TestPairLocalRoutesCountsSpliced(t *testing.T) {
	w := newWorld(t, 150, 241)
	if pairStatsAgree(t, w, w.p, func(st PairStats) bool { return st.Spliced > 0 }) == 0 {
		t.Skip("no pair with a spliced reference found")
	}
}

// TestPairLocalRoutesHonoursTemporalWeighting: with the time-of-day filter
// on, PairLocalRoutes infers from the same filtered references InferRoutes
// sees for the pair — and the filter does remove references in this world.
func TestPairLocalRoutesHonoursTemporalWeighting(t *testing.T) {
	w := newWorld(t, 300, 243)
	p := w.p
	p.TemporalWeighting, p.TimeWindow = true, 1800
	if pairStatsAgree(t, w, p, func(st PairStats) bool { return st.Refs > 0 }) == 0 {
		t.Skip("no pair kept a reference inside the time window")
	}
	qi, qj := pickPair(t, w, 240, 4)
	_, all := w.eng.PairLocalRoutes(qi, qj, MethodHybrid, w.p)
	p.TimeWindow = 1
	if _, kept := w.eng.PairLocalRoutes(qi, qj, MethodHybrid, p); kept.Refs >= all.Refs {
		t.Fatalf("a 1 s window kept %d of %d references", kept.Refs, all.Refs)
	}
}
