// Quickstart: build a small world, run History-based Route Inference on a
// low-sampling-rate trajectory, and print the suggested routes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/eval"
)

func main() {
	log.SetFlags(0)

	// 1. A synthetic city stands in for the road network (Definition 3).
	// A simulated taxi fleet gives the historical archive: a mix of high-
	// and low-sampling-rate trips with skewed route choices. The world
	// indexes the archive and creates the HRIS engine with the paper's
	// default parameters (Table II). The engine is immutable and safe to
	// share across goroutines; per-call parameters go in by value.
	w := eval.NewWorld(eval.WorldConfig{Seed: 42, CityRows: 14, CityCols: 14, Hotspots: 7, Trips: 500, Noise: 15})
	g := w.Graph()
	fmt.Println("city:", w.DS.City)
	fmt.Printf("archive: %d trips\n", len(w.DS.Archive))

	// 2. Make a low-sampling-rate query: a trip sampled every 3 minutes
	// with GPS noise. The generating route is kept as ground truth.
	qs := w.Queries(1, 180, 8000, 7)
	if len(qs) == 0 {
		log.Fatal("could not generate a query")
	}
	qc := qs[0]
	fmt.Printf("query: %d points over %.1f km (sampling interval %.0f s)\n",
		qc.Query.Len(), qc.Truth.Length(g)/1000, qc.Query.AvgInterval())

	// 3. Infer the top-K routes.
	res, err := w.Eng.InferRoutes(qc.Query, w.Eng.Defaults())
	if err != nil {
		log.Fatalf("inference: %v", err)
	}
	fmt.Println("\nsuggested routes (best first):")
	for i, r := range res.Routes {
		fmt.Printf("  %d. score %8.2f  %.1f km  %2d segments  A_L=%.3f\n",
			i+1, r.Score, r.Route.Length(g)/1000, len(r.Route),
			eval.AccuracyAL(g, qc.Truth, r.Route))
	}

	// 4. Where did the evidence come from?
	simple, spliced := 0, 0
	for _, ps := range res.Pairs {
		simple += ps.Refs - ps.Spliced
		spliced += ps.Spliced
	}
	fmt.Printf("\nreference trajectories: %d simple (Def. 6), %d spliced (Def. 7)\n",
		simple, spliced)
}
