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
	"sort"

	"repro/internal/eval"
	"repro/internal/traj"
)

func main() {
	log.SetFlags(0)
	w := eval.NewWorld(eval.WorldConfig{Seed: 31, CityRows: 14, CityCols: 14, Hotspots: 7, Trips: 800, Noise: 15})
	ds, g := w.DS, w.Graph()

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
		k := odKey{r.Start(g), r.End(g)}
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
	// Busiest first; equal counts in (origin, destination) order, so the
	// report does not depend on map iteration order.
	sort.Slice(stats, func(i, j int) bool {
		a, b := stats[i], stats[j]
		if a.trips != b.trips {
			return a.trips > b.trips
		}
		if a.k.o != b.k.o {
			return a.k.o < b.k.o
		}
		return a.k.d < b.k.d
	})
	for i := 0; i < len(stats) && i < 3; i++ {
		s := stats[i]
		fmt.Printf("  OD pair %d->%d: %d trips over %d distinct routes; the top route carries %.0f%%\n",
			s.k.o, s.k.d, s.trips, s.routes, 100*float64(s.top)/float64(s.trips))
	}
	fmt.Println()

	// --- Observation 2: complementarity of similar trajectories ---------
	fmt.Println("Observation 2: interleaving samples of low-rate trips on one route")
	// Pick the busiest OD pair's top route (the smallest route key among
	// equally popular ones) and collect the low-rate trips traveling it.
	topKey := ""
	topN := 0
	for key, n := range byOD[stats[0].k] {
		if n > topN || n == topN && key < topKey {
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
			routeLen = r.Length(g)
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
	var top1, best5 float64
	n := 0
	for _, qc := range w.Queries(20, 180, 7000, 5) {
		res, err := w.Eng.InferRoutes(qc.Query, w.P)
		if err != nil {
			continue
		}
		top1 += eval.AccuracyAL(g, qc.Truth, res.Routes[0].Route)
		b := 0.0
		for _, r := range res.Routes {
			if a := eval.AccuracyAL(g, qc.Truth, r.Route); a > b {
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
		w.P.K3, best5/float64(n))
}
