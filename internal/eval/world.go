package eval

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

// WorldConfig sizes the simulated evaluation substrate.
type WorldConfig struct {
	Seed     int64
	CityRows int
	CityCols int
	Hotspots int
	Trips    int // archive size
	Queries  int // queries per experiment point
	QueryLen float64
	Noise    float64 // GPS noise sigma for queries (m)
	// Accel selects the road network's shortest-path engine (default:
	// contraction hierarchies). Applied before any distance query runs,
	// so the lazy oracle build honours it.
	Accel roadnet.AccelMode
}

// QuickConfig is sized for CI and unit tests: a 14×14 city, 400 trips,
// 5 queries per point.
func QuickConfig() WorldConfig {
	return WorldConfig{
		Seed: 7, CityRows: 14, CityCols: 14, Hotspots: 7,
		Trips: 400, Queries: 5, QueryLen: 7000, Noise: 15,
	}
}

// FullConfig is sized for the full experiment run (cmd/experiments): a
// 22×22 city (≈10.5 km across), 1500 trips, 10 queries per point, 15 km
// queries (long queries keep the 12–15-minute sampling intervals from
// degenerating to two-point trajectories).
func FullConfig() WorldConfig {
	return WorldConfig{
		Seed: 7, CityRows: 22, CityCols: 22, Hotspots: 10,
		Trips: 1500, Queries: 10, QueryLen: 15000, Noise: 15,
	}
}

// World is a built evaluation substrate: city, archive, HRIS engine and
// competitor matchers. Experiments never mutate the engine; each sweep
// derives its parameter set from the baseline P and passes it by value.
type World struct {
	Cfg     WorldConfig
	DS      *sim.Dataset
	Archive hist.View // read-only: a Snapshot here, but nothing in eval may assume so
	Eng     *core.Engine
	P       core.Params // baseline parameters for experiments
	Fleet   sim.FleetConfig

	Incremental mapmatch.Matcher
	ST          mapmatch.Matcher
	IVMM        mapmatch.Matcher
}

// Graph returns the road network of the world's engine.
func (w *World) Graph() *roadnet.Graph { return w.Eng.Graph() }

// NewWorld builds the substrate deterministically from cfg.
func NewWorld(cfg WorldConfig) *World { return newWorld(cfg, false) }

// newWorld is NewWorld with the fleet's time-of-day patterns (AM and PM
// route preferences differ) switched on or off. Every world of the
// evaluation and of the examples is built here.
func newWorld(cfg WorldConfig, timeOfDay bool) *World {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = cfg.CityRows, cfg.CityCols
	ccfg.Hotspots = cfg.Hotspots
	city := sim.GenerateCity(ccfg, cfg.Seed)
	city.Graph.SetAccel(cfg.Accel)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = cfg.Trips
	fcfg.Seed = cfg.Seed
	fcfg.TimeOfDayPatterns = timeOfDay
	ds := sim.BuildDataset(city, fcfg)
	arch := hist.NewArchive(city.Graph, ds.Archive)
	mprm := mapmatch.DefaultParams()
	return &World{
		Cfg:         cfg,
		DS:          ds,
		Archive:     arch,
		Eng:         core.NewEngine(arch, core.DefaultParams()),
		P:           core.DefaultParams(),
		Fleet:       fcfg,
		Incremental: mapmatch.NewIncremental(city.Graph, mprm),
		ST:          mapmatch.NewSTMatcher(city.Graph, mprm),
		IVMM:        mapmatch.NewIVMM(city.Graph, mprm),
	}
}

// Queries generates n evaluation queries with the given sampling interval
// (seconds) and target length (meters), deterministically per (seed, n).
func (w *World) Queries(n int, interval, length float64, seed int64) []sim.QueryCase {
	return sampleQueries(n, seed, func(rng *rand.Rand) (sim.QueryCase, bool) {
		return w.DS.GenQuery(length, interval, w.Cfg.Noise, w.Fleet, rng)
	})
}

// sampleQueries draws from gen, on one generator seeded with seed, until it
// holds n queries of two points or more or gen fails. Every query set of
// the evaluation is drawn here.
func sampleQueries(n int, seed int64, gen func(*rand.Rand) (sim.QueryCase, bool)) []sim.QueryCase {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.QueryCase, 0, n)
	for len(out) < n {
		qc, ok := gen(rng)
		if !ok {
			break
		}
		if qc.Query.Len() >= 2 {
			out = append(out, qc)
		}
	}
	return out
}
