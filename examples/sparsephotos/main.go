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

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/hist"
	"repro/internal/mapmatch"
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
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 16, 16
	ccfg.Hotspots = 8
	city := sim.GenerateCity(ccfg, 19)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = 700
	fcfg.Seed = 19
	ds := sim.BuildDataset(city, fcfg)
	archive := hist.NewArchive(city.Graph, ds.Archive)

	params := core.DefaultParams()
	// Sparser observations need a wider reference search and more
	// aggressive splicing (the paper: larger sampling intervals require
	// larger φ, Figure 9a).
	params.Phi = 800
	params.SpliceEps = 300
	eng := core.NewEngine(archive, params)

	rng := rand.New(rand.NewSource(23))
	// The tourist travels one long leg between the two farthest-apart
	// hotspots, drawn from the same skewed route-choice model as the fleet.
	o, d := farthestHotspots(city)
	route, ok := sim.SampleRoute(city.PlanRoutes(o, d, fcfg.RouteK), fcfg.RouteSkew, rng)
	if !ok {
		log.Fatal("no trip")
	}
	high := sim.SimulateTrip(city.Graph, route, "tourist", 0, sim.DefaultMotion(), rng)

	// A tourist photographs every ~8 minutes: a handful of samples for the
	// whole trip.
	photos := traj.AddNoise(traj.Downsample(high, 480), 25, rng)
	fmt.Printf("photo trail: %d photos over a %.1f km trip (interval %.0f min)\n",
		photos.Len(), route.Length(city.Graph)/1000, photos.AvgInterval()/60)

	res, err := eng.InferRoutes(photos, eng.Defaults())
	if err != nil {
		log.Fatalf("inference: %v", err)
	}
	fmt.Println("\nHRIS route suggestions:")
	for i, r := range res.Routes {
		fmt.Printf("  %d. score %8.2f  %.1f km  A_L=%.3f\n",
			i+1, r.Score, r.Route.Length(city.Graph)/1000,
			eval.AccuracyAL(city.Graph, route, r.Route))
	}

	st := mapmatch.NewSTMatcher(city.Graph, mapmatch.DefaultParams())
	if r, err := st.Match(photos); err == nil {
		fmt.Printf("\nST-Matching on the same photos: A_L=%.3f\n",
			eval.AccuracyAL(city.Graph, route, r))
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
