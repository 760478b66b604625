package eval

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/sim"
)

// ShardProfile measures how the sharded live archive scales with shard
// count: the same trip set is ingested into a hist.Store at each count
// (batched, timed end to end, background compactions included) and the same
// fixed query set is inferred against the compacted store. Two tables come
// back — ingest throughput and mean query latency vs shard count. The n=1
// row is the baseline every query answers on the fast path; larger counts
// show the scatter-gather trade: ingest sheds work per shard while boundary
// queries pay fan-out.
func ShardProfile(cfg WorldConfig, shardCounts []int) (query, ingest *Table) {
	query = &Table{Figure: "shards-query", Title: "Query latency vs shard count",
		XLabel: "shards", YLabel: "ms/query"}
	ingest = &Table{Figure: "shards-ingest", Title: "Ingest throughput vs shard count",
		XLabel: "shards", YLabel: "trips/s"}

	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = cfg.CityRows, cfg.CityCols
	ccfg.Hotspots = cfg.Hotspots
	city := sim.GenerateCity(ccfg, cfg.Seed)
	city.Graph.SetAccel(cfg.Accel)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = cfg.Trips
	fcfg.Seed = cfg.Seed
	trips, _ := sim.NewTripEmitter(city, fcfg).Emit(cfg.Trips)

	p := core.DefaultParams()
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
	if len(trips) == 0 || len(qs) == 0 {
		return query, ingest
	}

	const batch = 25
	for _, n := range shardCounts {
		st := hist.NewShardedStore(city.Graph, nil, hist.ShardedConfig{
			Shards: n,
			Halo:   p.Phi,
		})
		start := time.Now()
		for lo := 0; lo < len(trips); lo += batch {
			hi := lo + batch
			if hi > len(trips) {
				hi = len(trips)
			}
			st.IngestTrips(trips[lo:hi]...)
		}
		st.Wait()
		ingest.Add("sharded store", float64(n), float64(len(trips))/time.Since(start).Seconds())

		st.Compact()
		st.Wait()
		// A fresh engine per shard count and a single cold pass: warm memos
		// would serve the reference search from cache and mask exactly the
		// scatter-gather cost this profile exists to measure.
		eng := core.NewEngine(st, p)
		t0 := time.Now()
		for _, qc := range qs {
			_, _ = eng.InferRoutes(qc.Query, p)
		}
		query.Add("sharded store", float64(n),
			time.Since(t0).Seconds()*1000/float64(len(qs)))
	}
	return query, ingest
}
