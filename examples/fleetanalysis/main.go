// Fleet analysis: demonstrates the two observations that make
// history-based route inference work (§I-A) on a simulated fleet —
// Observation 1, travel patterns between locations are highly skewed, and
// Observation 2, similar low-rate trajectories complement each other —
// then quantifies uncertainty reduction across many fleet queries.
//
//	go run ./examples/fleetanalysis
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/hist"
	"repro/internal/sim"
	"repro/internal/traj"
)

func main() {
	log.SetFlags(0)
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 14, 14
	ccfg.Hotspots = 7
	city := sim.GenerateCity(ccfg, 31)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = 800
	fcfg.Seed = 31
	ds := sim.BuildDataset(city, fcfg)

	// --- Observation 1: skewness of travel patterns ---------------------
	// Group the archive's trips by origin-destination pair: within a pair,
	// a few routes should dominate ("travel patterns between certain
	// locations are often highly skewed").
	fmt.Println("Observation 1: route-choice skew within origin-destination pairs")
	type odKey struct{ o, d int }
	byOD := make(map[odKey]map[string]int)
	for _, r := range ds.Truth {
		if len(r) == 0 {
			continue
		}
		k := odKey{r.Start(city.Graph), r.End(city.Graph)}
		if byOD[k] == nil {
			byOD[k] = make(map[string]int)
		}
		byOD[k][r.Key()]++
	}
	// Report the three busiest pairs.
	type odStat struct {
		k      odKey
		trips  int
		routes int
		top    int
	}
	var stats []odStat
	for k, routes := range byOD {
		s := odStat{k: k, routes: len(routes)}
		for _, n := range routes {
			s.trips += n
			if n > s.top {
				s.top = n
			}
		}
		stats = append(stats, s)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].trips > stats[j].trips })
	for i := 0; i < len(stats) && i < 3; i++ {
		s := stats[i]
		fmt.Printf("  OD pair %d->%d: %d trips over %d distinct routes; the top route carries %.0f%%\n",
			s.k.o, s.k.d, s.trips, s.routes, 100*float64(s.top)/float64(s.trips))
	}
	fmt.Println()

	// --- Observation 2: complementarity of similar trajectories ---------
	fmt.Println("Observation 2: interleaving samples of low-rate trips on one route")
	// Pick the busiest OD pair's top route and collect the low-rate trips
	// traveling it.
	topKey := ""
	topN := 0
	for key, n := range byOD[stats[0].k] {
		if n > topN {
			topKey, topN = key, n
		}
	}
	var onTop []*traj.Trajectory
	for _, tr := range ds.Archive {
		if ds.Truth[tr.ID].Key() == topKey && tr.IsLowSamplingRate() {
			onTop = append(onTop, tr)
		}
	}
	routeLen := 0.0
	for _, r := range ds.Truth {
		if r.Key() == topKey {
			routeLen = r.Length(city.Graph)
			break
		}
	}
	if len(onTop) >= 2 {
		solo := onTop[0]
		soloSpacing := routeLen / float64(solo.Len())
		merged := 0
		for _, tr := range onTop {
			merged += tr.Len()
		}
		mergedSpacing := routeLen / float64(merged)
		fmt.Printf("  one low-rate trip alone: %d samples (~%.0f m between samples)\n",
			solo.Len(), soloSpacing)
		fmt.Printf("  %d similar trips together: %d samples (~%.0f m between samples)\n\n",
			len(onTop), merged, mergedSpacing)
	} else {
		fmt.Println("  (not enough low-rate trips on the top route in this seed)")
	}

	// --- Uncertainty reduction across the fleet -------------------------
	fmt.Println("Fleet-wide inference quality (20 queries, 3 min interval):")
	archive := hist.NewArchive(city.Graph, ds.Archive)
	eng := core.NewEngine(archive, core.DefaultParams())
	rng := rand.New(rand.NewSource(5))
	var top1, best5 float64
	n := 0
	for i := 0; i < 20; i++ {
		qc, ok := ds.GenQuery(7000, 180, 15, fcfg, rng)
		if !ok {
			continue
		}
		res, err := eng.InferRoutes(qc.Query, eng.Defaults())
		if err != nil {
			continue
		}
		top1 += eval.AccuracyAL(city.Graph, qc.Truth, res.Routes[0].Route)
		b := 0.0
		for _, r := range res.Routes {
			if a := eval.AccuracyAL(city.Graph, qc.Truth, r.Route); a > b {
				b = a
			}
		}
		best5 += b
		n++
	}
	if n == 0 {
		log.Fatal("no successful queries")
	}
	fmt.Printf("  mean top-1 A_L: %.3f\n", top1/float64(n))
	fmt.Printf("  mean best-of-%d A_L: %.3f (uncertainty shrinks as K grows, Figure 14a)\n",
		eng.Defaults().K3, best5/float64(n))
}
