// Map-matching comparison: the paper's evaluation scenario (§IV). One
// low-sampling-rate query is matched by the incremental matcher,
// ST-Matching, IVMM and HRIS, at several sampling intervals, reproducing
// the qualitative ordering of Figure 8a on a single trip.
//
//	go run ./examples/mapmatching
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/hist"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

func main() {
	log.SetFlags(0)
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 14, 14
	ccfg.Hotspots = 7
	city := sim.GenerateCity(ccfg, 11)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = 600
	fcfg.Seed = 11
	ds := sim.BuildDataset(city, fcfg)
	archive := hist.NewArchive(city.Graph, ds.Archive)
	eng := core.NewEngine(archive, core.DefaultParams())
	prm := mapmatch.DefaultParams()
	matchers := []mapmatch.Matcher{
		mapmatch.NewPointToCurve(city.Graph, prm),
		mapmatch.NewIncremental(city.Graph, prm),
		mapmatch.NewSTMatcher(city.Graph, prm),
		mapmatch.NewIVMM(city.Graph, prm),
		mapmatch.NewHMM(city.Graph, prm),
	}

	rng := rand.New(rand.NewSource(3))
	// Pick a popular-but-not-shortest trip: drivers here favor fast
	// arterials over the geometrically shortest path (the paper's
	// Observation 1 — "R_b is heavily traversed but longer than R_a").
	// That is exactly where history helps and shortest-path-based
	// matching misleads.
	route := popularDetourTrip(city, ds, fcfg)
	if route == nil {
		log.Fatal("no suitable trip found")
	}
	_ = rng
	high := sim.SimulateTrip(city.Graph, route, "trip", 0, sim.DefaultMotion(), rng)
	fmt.Printf("trip: %.1f km, high-rate trace has %d points\n\n",
		route.Length(city.Graph)/1000, high.Len())
	fmt.Printf("%-9s", "interval")
	for _, m := range matchers {
		fmt.Printf("%15s", m.Name())
	}
	fmt.Printf("%15s\n", "HRIS")

	for _, interval := range []float64{180, 360, 600, 900} {
		q := traj.AddNoise(traj.Downsample(high, interval), 15, rng)
		fmt.Printf("%6.0f s ", interval)
		for _, m := range matchers {
			r, err := m.Match(q)
			if err != nil {
				fmt.Printf("%15s", "fail")
				continue
			}
			fmt.Printf("%15.3f", eval.AccuracyAL(city.Graph, route, r))
		}
		res, err := eng.InferRoutes(q, eng.Defaults())
		if err != nil {
			fmt.Printf("%15s\n", "fail")
			continue
		}
		fmt.Printf("%15.3f\n", eval.AccuracyAL(city.Graph, route, res.Routes[0].Route))
	}
	fmt.Println("\nA_L = length-weighted longest common road segments / max route length")
}

// popularDetourTrip scans hotspot pairs for a top-choice route (by travel
// time) that is noticeably longer than the distance-shortest path, and long
// enough to make an interesting query.
func popularDetourTrip(city *sim.City, ds *sim.Dataset, fcfg sim.FleetConfig) roadnet.Route {
	coverage := func(r roadnet.Route) int {
		in := make(map[roadnet.EdgeID]bool, len(r))
		for _, e := range r {
			in[e] = true
		}
		n := 0
		for _, truth := range ds.Truth {
			common := 0
			for _, e := range truth {
				if in[e] {
					common++
				}
			}
			if common*2 >= len(r) { // covers at least half the trip
				n++
			}
		}
		return n
	}
	var best roadnet.Route
	bestScore := -1.0
	for _, o := range city.Hotspots {
		for _, d := range city.Hotspots {
			if o == d {
				continue
			}
			routes := city.PlanRoutes(o, d, fcfg.RouteK)
			if len(routes) == 0 {
				continue
			}
			top := routes[0]
			if top.Length(city.Graph) < 6000 {
				continue
			}
			_, spLen, ok := city.Graph.EdgePathBetweenVertices(o, d)
			if !ok || spLen == 0 {
				continue
			}
			detour := top.Length(city.Graph) / spLen
			cov := coverage(top)
			if detour < 1.08 || cov < 8 {
				continue
			}
			if score := detour * float64(cov); score > bestScore {
				best, bestScore = top, score
			}
		}
	}
	return best
}
