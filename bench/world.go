package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

// query is one inference input in both forms the benchmark needs: the
// /infer request body for the wire and the trajectory for in-process calls,
// plus the route that generated it (the ground truth of accuracy_al).
type query struct {
	body  []byte
	traj  *traj.Trajectory
	truth roadnet.Route
}

// world is everything one run derives from its seed: the dataset files the
// server loads and the inputs the driver sends.
type world struct {
	dataDir string
	queries []query
	// batches are /ingest bodies of raw trips and batchTrips the same trips
	// for in-process ingestion.
	batches    [][]byte
	batchTrips [][]*traj.Trajectory
}

// downsampleIntervals cycles over the sampling intervals of the paper's
// low-sampling-rate range (2 to 10 minutes), so fresh traffic mixes short
// and long pairs.
var downsampleIntervals = []float64{120, 180, 360, 600}

const tripsPerBatch = 10

func marshalQuery(q *traj.Trajectory) []byte {
	req := struct {
		Points [][3]float64 `json:"points"`
	}{}
	for _, p := range q.Points {
		req.Points = append(req.Points, [3]float64{p.Pt.X, p.Pt.Y, p.T})
	}
	out, err := json.Marshal(req)
	if err != nil {
		panic(err) // finite floats in a fixed struct cannot fail to marshal
	}
	return out
}

// worldSeed fixes the city and the archive (cmd/gendata's default seed), so
// that runs on different seeds differ in their traffic only and stay
// comparable; a run's seed picks which trips become queries, sessions and
// ingest batches, and the replay order.
const worldSeed = 7

// Offsets that keep the traffic fleets' random streams apart from the
// archive's and from each other for any seed.
const (
	querySeedBase  = 1 << 32
	ingestSeedBase = 2 << 32
	streamSeedBase = 3 << 32
)

// genWorld builds the city and archive of cmd/gendata's defaults, writes
// them under dir, and generates the inputs of one workload from cfg.seed:
// nQueries queries of the workload's kind and nBatches ingest batches.
func genWorld(cfg config, workload, dir string, nQueries, nBatches int) (*world, error) {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols, ccfg.Hotspots = cfg.rows, cfg.cols, cfg.hotspots
	city := sim.GenerateCity(ccfg, worldSeed)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = cfg.trips
	fcfg.Seed = worldSeed
	em := sim.NewTripEmitter(city, fcfg)
	var archive []*traj.Trajectory
	truth := map[string][]int{}
	for i := 0; i < cfg.trips; i++ {
		tr, route, ok := em.Next()
		if !ok {
			continue
		}
		archive = append(archive, tr)
		truth[tr.ID] = route
	}
	w := &world{dataDir: filepath.Join(dir, "data")}
	if err := writeDataset(w.dataDir, city.Graph, archive, truth); err != nil {
		return nil, err
	}

	switch workload {
	case "infer-replay":
		// The replay pool is the archive fleet's next trips, the same for
		// every seed: a pool this small would otherwise move every metric
		// with the luck of its draw. The seed sets the replay order.
		w.queries = genFreshQueries(em, nQueries)
	case "stream-fleet":
		w.queries = genStreamTrips(city, fcfg, streamSeedBase+cfg.seed, nQueries)
	default:
		fcfg.Seed = querySeedBase + cfg.seed
		w.queries = genFreshQueries(sim.NewTripEmitter(city, fcfg), nQueries)
	}
	if len(w.queries) < nQueries {
		return nil, fmt.Errorf("world yields only %d of %d queries", len(w.queries), nQueries)
	}

	fcfg.Seed = ingestSeedBase + cfg.seed
	ing := sim.NewTripEmitter(city, fcfg)
	for b := 0; b < nBatches; b++ {
		trips, _ := ing.Emit(tripsPerBatch)
		type tripJSON struct {
			ID     string       `json:"id"`
			Points [][3]float64 `json:"points"`
		}
		var req struct {
			Trips []tripJSON `json:"trips"`
		}
		for i, tr := range trips {
			tr.ID = fmt.Sprintf("ingest-%d-%d", b, i)
			tj := tripJSON{ID: tr.ID}
			for _, p := range tr.Points {
				tj.Points = append(tj.Points, [3]float64{p.Pt.X, p.Pt.Y, p.T})
			}
			req.Trips = append(req.Trips, tj)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		w.batches = append(w.batches, body)
		w.batchTrips = append(w.batchTrips, trips)
	}
	return w, nil
}

// genFreshQueries turns the emitter's next trips, which the archive has
// never seen, into low-sampling-rate queries. GPS noise makes every pair of
// points unique, which is what keeps the reference-search memo cold.
func genFreshQueries(em *sim.TripEmitter, n int) []query {
	var out []query
	for attempts := 0; len(out) < n && attempts < 20*n+100; attempts++ {
		tr, route, ok := em.Next()
		if !ok {
			continue
		}
		q := traj.Downsample(tr, downsampleIntervals[len(out)%len(downsampleIntervals)])
		if q.Len() < 2 {
			continue
		}
		out = append(out, query{body: marshalQuery(q), traj: q, truth: route})
	}
	return out
}

// genStreamTrips simulates ~15 km vehicle trips sampled every 60 to 120 s,
// the feed one /stream session carries point by point.
func genStreamTrips(city *sim.City, fcfg sim.FleetConfig, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed))
	var out []query
	for attempts := 0; len(out) < n && attempts < 20*n+100; attempts++ {
		route, ok := city.TripOfLength(15000, fcfg.RouteK, fcfg.RouteSkew, rng)
		if !ok {
			continue
		}
		motion := sim.DefaultMotion()
		motion.Interval = 60 + 60*rng.Float64()
		tr := sim.SimulateTrip(city.Graph, route, fmt.Sprintf("veh-%d", len(out)), 0, motion, rng)
		if tr.Len() < 3 {
			continue
		}
		tr = traj.AddNoise(tr, fcfg.NoiseSigma, rng)
		out = append(out, query{body: marshalQuery(tr), traj: tr, truth: route})
	}
	return out
}

func writeDataset(dir string, g *roadnet.Graph, archive []*traj.Trajectory, truth map[string][]int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	nf, err := os.Create(filepath.Join(dir, "network.json"))
	if err != nil {
		return err
	}
	if err := g.WriteJSON(nf); err != nil {
		nf.Close()
		return fmt.Errorf("write network: %w", err)
	}
	if err := nf.Close(); err != nil {
		return err
	}
	af, err := os.Create(filepath.Join(dir, "archive.json"))
	if err != nil {
		return err
	}
	if err := traj.WriteArchive(af, archive, truth); err != nil {
		af.Close()
		return fmt.Errorf("write archive: %w", err)
	}
	return af.Close()
}

// loadDataset reads the dataset files back the way cmd/hris does, so the
// in-process engine of the checks and the ledger sees what the server saw.
func loadDataset(dir string) (*roadnet.Graph, []*traj.Trajectory, error) {
	nf, err := os.Open(filepath.Join(dir, "network.json"))
	if err != nil {
		return nil, nil, err
	}
	defer nf.Close()
	g, err := roadnet.ReadJSON(nf)
	if err != nil {
		return nil, nil, fmt.Errorf("read network: %w", err)
	}
	af, err := os.Open(filepath.Join(dir, "archive.json"))
	if err != nil {
		return nil, nil, err
	}
	defer af.Close()
	trajs, _, err := traj.ReadArchive(af)
	if err != nil {
		return nil, nil, fmt.Errorf("read archive: %w", err)
	}
	return g, trajs, nil
}
