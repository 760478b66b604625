package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traj"
)

// LoadStats is the outcome of one closed-loop load level against a gated
// engine: the outcome mix plus exact (not bucketed) served-latency
// percentiles, computed from every individual request.
type LoadStats struct {
	Clients     int
	Elapsed     time.Duration
	Requests    int
	Served      int
	Degraded    int // served, but past-deadline best-effort
	ShedQueue   int // rejected at admission (queue full)
	ShedExpired int // shed before inference start (deadline doomed)
	Errors      int // anything else (should stay 0)

	QPS                float64 // served throughput
	P50, P95, P99, Max time.Duration
}

// ShedRate is the shed share of all requests (0..1).
func (s LoadStats) ShedRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.ShedQueue+s.ShedExpired) / float64(s.Requests)
}

// DegradeRate is the degraded share of served responses (0..1).
func (s LoadStats) DegradeRate() float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.Degraded) / float64(s.Served)
}

// runLoadLevel drives gate with `clients` closed-loop clients for `window`:
// each client sends one inference, waits for its outcome, and immediately
// sends the next — offered load follows served throughput, the way a pool
// of real users behaves. A shed client backs off for one deadline before
// retrying, like a well-behaved client honoring a 429/503; without the
// backoff the shed clients hot-loop on the (cheap, lock-free) rejection
// path and, on a small GOMAXPROCS, starve the goroutine actually holding
// the worker slot. Queries are drawn from pool at random per client.
func runLoadLevel(gate *core.Gate, pool []*traj.Trajectory, p core.Params, clients int, window time.Duration) LoadStats {
	backoff := p.Deadline
	if backoff <= 0 {
		backoff = 5 * time.Millisecond
	}
	type clientStats struct {
		lat                                            []time.Duration
		requests, served, degraded, shedQ, shedE, errs int
	}
	res := make([]clientStats, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*7919 + 1))
			cs := &res[c]
			for time.Since(start) < window {
				q := pool[rng.Intn(len(pool))]
				t0 := time.Now()
				r, err := gate.Do(context.Background(), q, p)
				el := time.Since(t0)
				cs.requests++
				switch {
				case err == nil:
					cs.served++
					cs.lat = append(cs.lat, el)
					if r.Degraded {
						cs.degraded++
					}
				case errors.Is(err, core.ErrQueueFull):
					cs.shedQ++
					time.Sleep(backoff)
				case errors.Is(err, core.ErrShedExpired):
					cs.shedE++
					time.Sleep(backoff)
				default:
					cs.errs++
				}
			}
		}(c)
	}
	wg.Wait()
	out := LoadStats{Clients: clients, Elapsed: time.Since(start)}
	var lat []time.Duration
	for _, cs := range res {
		out.Requests += cs.requests
		out.Served += cs.served
		out.Degraded += cs.degraded
		out.ShedQueue += cs.shedQ
		out.ShedExpired += cs.shedE
		out.Errors += cs.errs
		lat = append(lat, cs.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	quantile := func(q float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		idx := int(q*float64(len(lat))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return lat[idx]
	}
	out.P50, out.P95, out.P99 = quantile(0.50), quantile(0.95), quantile(0.99)
	if len(lat) > 0 {
		out.Max = lat[len(lat)-1]
	}
	if out.Elapsed > 0 {
		out.QPS = float64(out.Served) / out.Elapsed.Seconds()
	}
	return out
}

// gatedEngine builds a fresh instrumented store + engine + admission gate
// over the world's archive trips, plus a pool of n distinct queries, warmed
// so the distance oracle and caches exist before anything is measured.
func (w *World) gatedEngine(n int) (*core.Gate, []*traj.Trajectory, func()) {
	reg := obs.New()
	st := hist.NewStore(w.Graph(), w.DS.Archive, hist.StoreConfig{Registry: reg})
	eng := core.NewEngineWithRegistry(st, w.P, reg)
	gate := core.NewGate(eng, core.GateConfig{QueueDepth: -1}) // server defaults
	var pool []*traj.Trajectory
	for _, qc := range w.Queries(n, 180, w.Cfg.QueryLen, 211) {
		pool = append(pool, qc.Query)
		eng.InferRoutes(qc.Query, w.P)
	}
	return gate, pool, st.Wait
}

// LoadProfile is the sustained-throughput figure (-fig load): closed-loop
// clients against the admission-gated serving path at increasing
// concurrency, each request carrying the fixed deadline. Under capacity the
// gate is invisible — served p95 tracks the engine's single-query latency.
// Past capacity a well-behaved server trades throughput ceiling for bounded
// latency: shed_pct rises while served p95/p99 stay near the deadline
// instead of growing with offered load.
func (w *World) LoadProfile(levels []int, deadline, window time.Duration) (*Table, []LoadStats) {
	gate, pool, done := w.gatedEngine(8)
	defer done()
	if len(pool) == 0 {
		return &Table{Figure: "load"}, nil
	}
	p := w.P
	p.Deadline = deadline
	t := &Table{
		Figure: "load",
		Title: fmt.Sprintf("Sustained throughput, closed-loop clients, %v deadline (gate: %d workers + %d queue)",
			deadline, gate.MaxInflight(), gate.QueueDepth()),
		XLabel: "clients",
		YLabel: "qps | ms | %",
	}
	var all []LoadStats
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, n := range levels {
		s := runLoadLevel(gate, pool, p, n, window)
		all = append(all, s)
		t.Add("served_qps", float64(n), s.QPS)
		t.Add("p95_ms", float64(n), ms(s.P95))
		t.Add("p99_ms", float64(n), ms(s.P99))
		t.Add("shed_pct", float64(n), 100*s.ShedRate())
		t.Add("degraded_pct", float64(n), 100*s.DegradeRate())
	}
	return t, all
}

// loadRecord folds a LoadStats into the benchmark-row shape.
func loadRecord(name string, s LoadStats) BenchResult {
	var mean int64
	if s.Requests > 0 {
		// NsPerOp is the closed-loop operation time: client-seconds spent
		// per request, shed round-trips included (shed must be cheap).
		mean = int64(s.Elapsed) * int64(s.Clients) / int64(s.Requests)
	}
	return BenchResult{
		Name:        name,
		Iterations:  s.Requests,
		NsPerOp:     mean,
		MsPerOp:     float64(mean) / 1e6,
		P95NsPerOp:  s.P95.Nanoseconds(),
		P99NsPerOp:  s.P99.Nanoseconds(),
		QPS:         s.QPS,
		ShedRate:    s.ShedRate(),
		DegradeRate: s.DegradeRate(),
	}
}

// loadBenchDeadline is the fixed per-request deadline of the sustained-
// throughput rows: comfortably above the quick world's single-query p95
// (~3ms), so under capacity nothing is shed, while over capacity the gate
// must shed the queue overflow instead of letting p99 grow with offered
// load.
const loadBenchDeadline = 25 * time.Millisecond

// loadBench measures the serving path of BENCH_9: closed-loop load against
// the admission-gated engine on a durable store (the same store flavor as
// hris_query/durable, whose p95 the under-capacity row must track).
// load/under runs exactly as many clients as the gate has workers and
// replays the same single query as the hris_query rows — the gate should be
// invisible: zero shed, mean op time within 10% of hris_query/durable.
// load/over
// offers 2× the gate's total capacity (workers + queue) in distinct queries
// (distinct, so single-flight coalescing cannot soak up the overload):
// the gate must shed the excess rather than queue without bound.
func loadBench(cfg WorldConfig) []BenchResult {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = cfg.CityRows, cfg.CityCols
	ccfg.Hotspots = cfg.Hotspots
	city := sim.GenerateCity(ccfg, cfg.Seed)
	city.Graph.SetAccel(cfg.Accel)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = cfg.Trips
	fcfg.Seed = cfg.Seed
	trips, _ := sim.NewTripEmitter(city, fcfg).Emit(cfg.Trips)

	dir, err := os.MkdirTemp("", "hris-bench-load-*")
	if err != nil {
		return nil
	}
	defer os.RemoveAll(dir)
	reg := obs.New()
	dst, _, err := hist.OpenShardedStore(dir, city.Graph, nil, hist.ShardedConfig{
		StoreConfig: hist.StoreConfig{Registry: reg}, Shards: 1,
	})
	if err != nil {
		return nil
	}
	defer dst.Close()
	dst.Ingest(trips...)
	dst.Wait()
	dst.Compact()

	eng := core.NewEngineWithRegistry(dst, core.DefaultParams(), reg)
	gate := core.NewGate(eng, core.GateConfig{QueueDepth: -1}) // server defaults

	// The same query the hris_query rows measure (seed 111), plus distinct
	// extra draws for the over-capacity pool.
	ds := &sim.Dataset{City: city}
	rng := rand.New(rand.NewSource(111))
	var pool []*traj.Trajectory
	for len(pool) < 8 {
		qc, ok := ds.GenQuery(cfg.QueryLen, 180, cfg.Noise, fcfg, rng)
		if !ok {
			break
		}
		pool = append(pool, qc.Query)
	}
	if len(pool) == 0 {
		return nil
	}
	p := core.DefaultParams()
	for _, q := range pool {
		eng.InferRoutes(q, p) // warm the oracle and caches off the clock
	}
	p.Deadline = loadBenchDeadline

	under := runLoadLevel(gate, pool[:1], p, gate.MaxInflight(), 2*time.Second)
	over := runLoadLevel(gate, pool, p, 2*(gate.MaxInflight()+gate.QueueDepth()), 2*time.Second)
	return []BenchResult{
		loadRecord("load/under-capacity", under),
		loadRecord("load/over-capacity", over),
	}
}
