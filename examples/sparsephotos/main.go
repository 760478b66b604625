// Sparse geotagged-photo trajectories: the introduction's motivating case
// where samples are tens of minutes apart (a Flickr photo stream viewed as
// a trajectory). With only a handful of far-apart points, conventional
// matchers have almost nothing to work with, while HRIS leans on the
// archive's travel patterns to fill the gaps.
//
//	go run ./examples/sparsephotos
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/eval"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

// farthestHotspots returns the hotspot pair with the largest straight-line
// separation.
func farthestHotspots(city *sim.City) (roadnet.VertexID, roadnet.VertexID) {
	var bo, bd roadnet.VertexID
	best := -1.0
	for _, o := range city.Hotspots {
		for _, d := range city.Hotspots {
			if o == d {
				continue
			}
			if dist := city.Graph.Vertices[o].Pt.Dist(city.Graph.Vertices[d].Pt); dist > best {
				bo, bd, best = o, d, dist
			}
		}
	}
	return bo, bd
}

func main() {
	log.SetFlags(0)
	w := eval.NewWorld(eval.WorldConfig{Seed: 19, CityRows: 16, CityCols: 16, Hotspots: 8, Trips: 700})
	city, g := w.DS.City, w.Graph()

	// Sparser observations need a wider reference search and more
	// aggressive splicing (the paper: larger sampling intervals require
	// larger φ, Figure 9a).
	params := w.P
	params.Phi = 800
	params.SpliceEps = 300

	rng := rand.New(rand.NewSource(23))
	// The tourist travels one long leg between the two farthest-apart
	// hotspots, drawn from the same skewed route-choice model as the fleet.
	o, d := farthestHotspots(city)
	route, ok := sim.SampleRoute(city.PlanRoutes(o, d, w.Fleet.RouteK), w.Fleet.RouteSkew, rng)
	if !ok {
		log.Fatal("no trip")
	}
	high := sim.SimulateTrip(g, route, "tourist", 0, sim.DefaultMotion(), rng)

	// A tourist photographs every ~8 minutes: a handful of samples for the
	// whole trip.
	photos := traj.AddNoise(traj.Downsample(high, 480), 25, rng)
	fmt.Printf("photo trail: %d photos over a %.1f km trip (interval %.0f min)\n",
		photos.Len(), route.Length(g)/1000, photos.AvgInterval()/60)

	res, err := w.Eng.InferRoutes(photos, params)
	if err != nil {
		log.Fatalf("inference: %v", err)
	}
	fmt.Println("\nHRIS route suggestions:")
	for i, r := range res.Routes {
		fmt.Printf("  %d. score %8.2f  %.1f km  A_L=%.3f\n",
			i+1, r.Score, r.Route.Length(g)/1000,
			eval.AccuracyAL(g, route, r.Route))
	}

	if r, err := w.ST.Match(photos); err == nil {
		fmt.Printf("\nST-Matching on the same photos: A_L=%.3f\n",
			eval.AccuracyAL(g, route, r))
	} else {
		fmt.Printf("\nST-Matching failed: %v\n", err)
	}

	fmt.Println("\nuncertainty reduction per photo gap:")
	for i := 0; i+1 < photos.Len(); i++ {
		qi, qj := photos.Points[i], photos.Points[i+1]
		locals := res.Locals[i]
		fmt.Printf("  gap %d (%.1f km apart): %d candidate routes suggested, best support %d trajectories\n",
			i+1, qi.Pt.Dist(qj.Pt)/1000, len(locals), len(locals[0].Refs))
	}
}
