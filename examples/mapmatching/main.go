// Map-matching comparison: the paper's evaluation scenario (§IV). One
// low-sampling-rate query is matched by point-to-curve, the incremental
// matcher, ST-Matching, IVMM, the HMM matcher and HRIS, at several sampling
// intervals, reproducing the qualitative ordering of Figure 8a on a single
// trip.
//
//	go run ./examples/mapmatching
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/eval"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

func main() {
	log.SetFlags(0)
	w := eval.NewWorld(eval.WorldConfig{Seed: 11, CityRows: 14, CityCols: 14, Hotspots: 7, Trips: 600, Noise: 15})
	g := w.Graph()
	prm := mapmatch.DefaultParams()
	matchers := []mapmatch.Matcher{
		mapmatch.NewPointToCurve(g, prm), w.Incremental, w.ST, w.IVMM, mapmatch.NewHMM(g, prm),
	}

	rng := rand.New(rand.NewSource(3))
	// Pick a popular-but-not-shortest trip: drivers here favor fast
	// arterials over the geometrically shortest path (the paper's
	// Observation 1 — "R_b is heavily traversed but longer than R_a").
	// That is exactly where history helps and shortest-path-based
	// matching misleads.
	route := popularDetourTrip(w)
	if route == nil {
		log.Fatal("no suitable trip found")
	}
	high := sim.SimulateTrip(g, route, "trip", 0, sim.DefaultMotion(), rng)
	fmt.Printf("trip: %.1f km, high-rate trace has %d points\n\n",
		route.Length(g)/1000, high.Len())
	fmt.Printf("%-9s", "interval")
	for _, m := range matchers {
		fmt.Printf("%15s", m.Name())
	}
	fmt.Printf("%15s\n", "HRIS")

	for _, interval := range []float64{180, 360, 600, 900} {
		q := traj.AddNoise(traj.Downsample(high, interval), w.Cfg.Noise, rng)
		fmt.Printf("%6.0f s ", interval)
		for _, m := range matchers {
			r, err := m.Match(q)
			if err != nil {
				fmt.Printf("%15s", "fail")
				continue
			}
			fmt.Printf("%15.3f", eval.AccuracyAL(g, route, r))
		}
		res, err := w.Eng.InferRoutes(q, w.P)
		if err != nil {
			fmt.Printf("%15s\n", "fail")
			continue
		}
		fmt.Printf("%15.3f\n", eval.AccuracyAL(g, route, res.Routes[0].Route))
	}
	fmt.Println("\nA_L = length-weighted longest common road segments / max route length")
}

// popularDetourTrip scans hotspot pairs for a top-choice route (by travel
// time) that is noticeably longer than the distance-shortest path, and long
// enough to make an interesting query.
func popularDetourTrip(w *eval.World) roadnet.Route {
	city, g := w.DS.City, w.Graph()
	coverage := func(r roadnet.Route) int {
		in := make(map[roadnet.EdgeID]bool, len(r))
		for _, e := range r {
			in[e] = true
		}
		n := 0
		for _, truth := range w.DS.Truth {
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
			routes := city.PlanRoutes(o, d, w.Fleet.RouteK)
			if len(routes) == 0 {
				continue
			}
			top := routes[0]
			if top.Length(g) < 6000 {
				continue
			}
			_, spLen, ok := g.EdgePathBetweenVertices(o, d)
			if !ok || spLen == 0 {
				continue
			}
			detour := top.Length(g) / spLen
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
