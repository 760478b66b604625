// No-map route inference: the paper's §VI future-work scenario where the
// road network is unavailable (wildlife tracking, unmapped regions,
// privacy-stripped feeds). HRIS's transit-graph machinery runs on bare
// reference points and returns polylines; we compare the inferred path's
// deviation from the truth against straight-line interpolation, the only
// alternative without a map.
//
//	go run ./examples/nomap
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/eval"
	"repro/internal/geo"
)

func main() {
	log.SetFlags(0)
	// The inference side sees ONLY the archive points — the network exists
	// solely inside the simulator to generate ground truth.
	w := eval.NewWorld(eval.WorldConfig{Seed: 47, CityRows: 14, CityCols: 14, Hotspots: 7, Trips: 600, Noise: 15})
	vmax := w.Graph().MaxSpeed() // a speed bound is domain knowledge, not a map

	rng := rand.New(rand.NewSource(5))
	fmt.Println("no-map inference: mean deviation from the true path (lower is better)")
	fmt.Printf("%-10s %18s %18s\n", "interval", "HRIS (no map)", "straight-line")
	for _, interval := range []float64{120, 240, 480} {
		var devH, devS float64
		n := 0
		for trial := 0; trial < 8; trial++ {
			qc, ok := w.DS.GenQuery(7000, interval, w.Cfg.Noise, w.Fleet, rng)
			if !ok {
				continue
			}
			truth := qc.Truth.Points(w.Graph())
			paths, err := w.Eng.InferPathsNetworkFreeCtx(context.Background(), qc.Query, w.P, vmax)
			if err != nil || len(paths) == 0 {
				continue
			}
			var straight geo.Polyline
			for _, p := range qc.Query.Points {
				straight = append(straight, p.Pt)
			}
			devH += geo.Deviation(truth, paths[0].Path, 50)
			devS += geo.Deviation(truth, straight, 50)
			n++
		}
		if n == 0 {
			continue
		}
		fmt.Printf("%6.0f s   %15.0f m  %15.0f m\n", interval, devH/float64(n), devS/float64(n))
	}
	fmt.Println("\nthe inferred path snaps to corridors other vehicles actually used,")
	fmt.Println("recovering road geometry the query samples alone cannot express")
}
