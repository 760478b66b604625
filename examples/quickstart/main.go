// Quickstart: build a small world, run History-based Route Inference on a
// low-sampling-rate trajectory, and print the suggested routes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/hist"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)

	// 1. A synthetic city stands in for the road network (Definition 3).
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 14, 14
	ccfg.Hotspots = 7
	city := sim.GenerateCity(ccfg, 42)
	fmt.Println("city:", city)

	// 2. Simulate a taxi fleet to obtain the historical archive: a mix of
	// high- and low-sampling-rate trips with skewed route choices.
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = 500
	fcfg.Seed = 42
	ds := sim.BuildDataset(city, fcfg)
	fmt.Printf("archive: %d trips\n", len(ds.Archive))

	// 3. Index the archive and create the HRIS engine with the paper's
	// default parameters (Table II). The engine is immutable and safe to
	// share across goroutines; per-call parameters go in by value.
	archive := hist.NewArchive(city.Graph, ds.Archive)
	eng := core.NewEngine(archive, core.DefaultParams())

	// 4. Make a low-sampling-rate query: a trip sampled every 3 minutes
	// with GPS noise. The generating route is kept as ground truth.
	rng := rand.New(rand.NewSource(7))
	qc, ok := ds.GenQuery(8000, 180, 15, fcfg, rng)
	if !ok {
		log.Fatal("could not generate a query")
	}
	fmt.Printf("query: %d points over %.1f km (sampling interval %.0f s)\n",
		qc.Query.Len(), qc.Truth.Length(city.Graph)/1000, qc.Query.AvgInterval())

	// 5. Infer the top-K routes.
	res, err := eng.InferRoutes(qc.Query, eng.Defaults())
	if err != nil {
		log.Fatalf("inference: %v", err)
	}
	fmt.Println("\nsuggested routes (best first):")
	for i, r := range res.Routes {
		fmt.Printf("  %d. score %8.2f  %.1f km  %2d segments  A_L=%.3f\n",
			i+1, r.Score, r.Route.Length(city.Graph)/1000, len(r.Route),
			eval.AccuracyAL(city.Graph, qc.Truth, r.Route))
	}

	// 6. Where did the evidence come from?
	simple, spliced := 0, 0
	for _, ps := range res.Pairs {
		simple += ps.Refs - ps.Spliced
		spliced += ps.Spliced
	}
	fmt.Printf("\nreference trajectories: %d simple (Def. 6), %d spliced (Def. 7)\n",
		simple, spliced)
}
