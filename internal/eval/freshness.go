package eval

import (
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

	// The world holds the city and no archive: its trips stream into the
	// store instead. The query set is fixed up front — it depends only on
	// the city, so every checkpoint answers the same questions with more
	// evidence.
	c := cfg
	c.Trips = 0
	w := newWorld(c, false)
	qs := w.Queries(cfg.Queries, 180, cfg.QueryLen, cfg.Seed+991)

	st := hist.NewStore(w.Graph(), nil, hist.StoreConfig{})
	eng := core.NewEngine(st, w.P)
	em := sim.NewTripEmitter(w.DS.City, w.Fleet)

	const batch = 25
	ingested := 0
	for _, n := range cps {
		for ingested < n {
			trips, _ := em.Emit(min(batch, n-ingested))
			st.IngestTrips(trips...)
			ingested += len(trips)
		}
		if len(qs) > 0 {
			t.Add("HRIS (live store)", float64(n), w.meanAccuracy(qs, top1(eng, w.P)))
		}
	}
	return t
}
