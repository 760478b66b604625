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

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 14, 14
	ccfg.Hotspots = 7
	city := sim.GenerateCity(ccfg, 47)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = 600
	fcfg.Seed = 47
	ds := sim.BuildDataset(city, fcfg)

	// The inference side sees ONLY the archive points — the network exists
	// solely inside the simulator to generate ground truth.
	archive := hist.NewArchive(city.Graph, ds.Archive)
	params := core.DefaultParams()
	eng := core.NewEngine(archive, params)
	vmax := city.Graph.MaxSpeed() // a speed bound is domain knowledge, not a map

	rng := rand.New(rand.NewSource(5))
	fmt.Println("no-map inference: mean deviation from the true path (lower is better)")
	fmt.Printf("%-10s %18s %18s\n", "interval", "HRIS (no map)", "straight-line")
	for _, interval := range []float64{120, 240, 480} {
		var devH, devS float64
		n := 0
		for trial := 0; trial < 8; trial++ {
			qc, ok := ds.GenQuery(7000, interval, 15, fcfg, rng)
			if !ok {
				continue
			}
			truth := qc.Truth.Points(city.Graph)
			paths, err := eng.InferPathsNetworkFreeCtx(context.Background(), qc.Query, params, vmax)
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
