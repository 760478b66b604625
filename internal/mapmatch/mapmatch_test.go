package mapmatch

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

func testWorld(seed int64) (*sim.City, *rand.Rand) {
	cfg := sim.DefaultCityConfig()
	cfg.Rows, cfg.Cols = 12, 12
	cfg.Hotspots = 6
	return sim.GenerateCity(cfg, seed), rand.New(rand.NewSource(seed))
}

// routeOverlap returns the fraction of the truth route's length covered by
// segments that also appear in the matched route (a cheap accuracy proxy
// for matcher tests; the real A_L metric lives in internal/eval).
func routeOverlap(g *roadnet.Graph, truth, matched roadnet.Route) float64 {
	in := make(map[roadnet.EdgeID]bool, len(matched))
	for _, e := range matched {
		in[e] = true
	}
	var common, total float64
	for _, e := range truth {
		l := g.Seg(e).Length
		total += l
		if in[e] {
			common += l
		}
	}
	if total == 0 {
		return 0
	}
	return common / total
}

func simulateCase(t *testing.T, city *sim.City, rng *rand.Rand, length, interval, noise float64) (roadnet.Route, *traj.Trajectory) {
	t.Helper()
	route, ok := city.TripOfLength(length, 4, 1.6, rng)
	if !ok {
		t.Fatal("TripOfLength failed")
	}
	motion := sim.DefaultMotion()
	motion.Interval = interval
	tr := sim.SimulateTrip(city.Graph, route, "q", 0, motion, rng)
	if noise > 0 {
		tr = traj.AddNoise(tr, noise, rng)
	}
	return route, tr
}

func matchers(g *roadnet.Graph) []Matcher {
	prm := DefaultParams()
	return []Matcher{NewIncremental(g, prm), NewSTMatcher(g, prm), NewIVMM(g, prm)}
}

// TestMatchersOnCleanHighRate: with dense, noise-free samples every matcher
// should recover nearly the whole route.
func TestMatchersOnCleanHighRate(t *testing.T) {
	city, rng := testWorld(101)
	truth, tr := simulateCase(t, city, rng, 4000, 20, 0)
	for _, m := range matchers(city.Graph) {
		got, err := m.Match(tr)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !got.Valid(city.Graph) {
			t.Fatalf("%s: invalid route", m.Name())
		}
		if ov := routeOverlap(city.Graph, truth, got); ov < 0.9 {
			t.Errorf("%s: overlap %.2f on clean high-rate trace", m.Name(), ov)
		}
	}
}

// TestMatchersOnNoisyHighRate: moderate GPS noise should still be handled
// well at high sampling rates.
func TestMatchersOnNoisyHighRate(t *testing.T) {
	city, rng := testWorld(103)
	truth, tr := simulateCase(t, city, rng, 4000, 20, 15)
	for _, m := range matchers(city.Graph) {
		got, err := m.Match(tr)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if ov := routeOverlap(city.Graph, truth, got); ov < 0.75 {
			t.Errorf("%s: overlap %.2f on noisy high-rate trace", m.Name(), ov)
		}
	}
}

// TestSTBeatsIncrementalOnLowRate reproduces the qualitative ordering the
// paper relies on: matchers designed for low sampling rates outperform the
// greedy incremental one when the interval grows (averaged over queries).
func TestSTBeatsIncrementalOnLowRate(t *testing.T) {
	city, rng := testWorld(105)
	var stSum, incSum float64
	runs := 6
	for i := 0; i < runs; i++ {
		truth, tr := simulateCase(t, city, rng, 6000, 240, 15)
		st, err1 := NewSTMatcher(city.Graph, DefaultParams()).Match(tr)
		inc, err2 := NewIncremental(city.Graph, DefaultParams()).Match(tr)
		if err1 != nil || err2 != nil {
			t.Fatalf("match errors: %v %v", err1, err2)
		}
		stSum += routeOverlap(city.Graph, truth, st)
		incSum += routeOverlap(city.Graph, truth, inc)
	}
	if stSum < incSum {
		t.Errorf("ST %.2f worse than incremental %.2f over %d runs", stSum/float64(runs), incSum/float64(runs), runs)
	}
}

func TestMatchersDegenerateInputs(t *testing.T) {
	city, _ := testWorld(107)
	for _, m := range matchers(city.Graph) {
		if _, err := m.Match(&traj.Trajectory{}); err == nil {
			t.Errorf("%s: empty trajectory accepted", m.Name())
		}
		one := &traj.Trajectory{Points: []traj.GPSPoint{{Pt: geo.Pt(1000, 1000), T: 0}}}
		r, err := m.Match(one)
		if err != nil || len(r) != 1 {
			t.Errorf("%s: single point -> %v, %v", m.Name(), r, err)
		}
	}
}

func TestStitchLocations(t *testing.T) {
	g := roadnet.NewGrid(3, 3, 100, 15)
	a, _ := g.LocationOf(geo.Pt(50, 0))
	b, _ := g.LocationOf(geo.Pt(150, 200))
	route, err := StitchLocations(g, []roadnet.Location{a, b})
	if err != nil {
		t.Fatalf("StitchLocations: %v", err)
	}
	if !route.Valid(g) {
		t.Fatalf("stitched route invalid: %v", route)
	}
	if _, err := StitchLocations(g, nil); err == nil {
		t.Fatal("empty locations accepted")
	}
}

func TestObservationMonotone(t *testing.T) {
	if observation(0, 20) != 1 {
		t.Fatal("observation(0) != 1")
	}
	if observation(10, 20) <= observation(50, 20) {
		t.Fatal("observation not decreasing")
	}
}

func TestTransmissionBounds(t *testing.T) {
	if transmission(100, 100) != 1 || transmission(100, 200) != 0.5 {
		t.Fatal("transmission wrong")
	}
	if transmission(200, 100) != 1 {
		t.Fatal("transmission should cap at 1")
	}
	if transmission(50, 0) != 1 {
		t.Fatal("zero network distance should give 1")
	}
}
