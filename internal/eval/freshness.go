package eval

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/sim"
)

// FreshnessProfile measures how inference accuracy improves as the live
// archive fills: trips stream from a TripEmitter into a hist.Store in small
// batches, and at each checkpoint (100 to 1500 trips ingested) a fixed query
// set is inferred against the store's current snapshot. The curve quantifies
// the paper's premise — reference density drives accuracy — in the online
// setting: a cold store answers poorly, and every published epoch narrows
// the gap to the fully loaded batch archive.
func FreshnessProfile(cfg WorldConfig) *Table {
	t := &Table{Figure: "freshness", Title: "Accuracy vs live archive size",
		XLabel: "trips ingested", YLabel: "A_L"}
	cps := []int{100, 300, 600, 1000, 1500}

	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = cfg.CityRows, cfg.CityCols
	ccfg.Hotspots = cfg.Hotspots
	city := sim.GenerateCity(ccfg, cfg.Seed)
	city.Graph.SetAccel(cfg.Accel)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = cps[len(cps)-1]
	fcfg.Seed = cfg.Seed

	// The query set is fixed up front — it depends only on the city, so
	// every checkpoint answers the same questions with more evidence.
	ds := &sim.Dataset{City: city}
	rng := rand.New(rand.NewSource(cfg.Seed + 991))
	var qs []sim.QueryCase
	for len(qs) < cfg.Queries {
		qc, ok := ds.GenQuery(cfg.QueryLen, 180, cfg.Noise, fcfg, rng)
		if !ok {
			break
		}
		if qc.Query.Len() < 2 {
			continue
		}
		qs = append(qs, qc)
	}

	st := hist.NewStore(city.Graph, nil, hist.StoreConfig{})
	eng := core.NewEngine(st, core.DefaultParams())
	em := sim.NewTripEmitter(city, fcfg)
	p := core.DefaultParams()

	const batch = 25
	ingested := 0
	for _, n := range cps {
		for ingested < n {
			want := batch
			if want > n-ingested {
				want = n - ingested
			}
			trips, _ := em.Emit(want)
			st.IngestTrips(trips...)
			ingested += len(trips)
		}
		var sum float64
		for _, qc := range qs {
			res, err := eng.InferRoutes(qc.Query, p)
			if err != nil || len(res.Routes) == 0 {
				continue
			}
			sum += AccuracyAL(city.Graph, qc.Truth, res.Routes[0].Route)
		}
		if len(qs) > 0 {
			t.Add("HRIS (live store)", float64(n), sum/float64(len(qs)))
		}
	}
	st.Wait()
	return t
}
