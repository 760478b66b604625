package eval

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graphalg"
	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

// BenchResult is one measured operation of the benchmark suite, in the
// units `go test -bench -benchmem` reports. P95NsPerOp is set only by the
// hand-timed measurements (ingestion and load), where the tail matters more
// than the mean: a batch that lands on a compaction-triggering epoch pays
// the memtable-count check and publish, and p95 bounds what a live feed
// sees. The load rows additionally carry the serving-path outcome mix:
// P99NsPerOp, served QPS, and the shed/degrade shares of the run.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	MsPerOp     float64 `json:"ms_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	P95NsPerOp  int64   `json:"p95_ns_per_op,omitempty"`
	P99NsPerOp  int64   `json:"p99_ns_per_op,omitempty"`
	QPS         float64 `json:"qps,omitempty"`
	ShedRate    float64 `json:"shed_rate,omitempty"`
	DegradeRate float64 `json:"degrade_rate,omitempty"`
}

// BenchReport is the machine-readable benchmark snapshot cmd/experiments
// -fig bench-json writes (BENCH_10.json). It pins the headline numbers of
// the shortest-path acceleration layer — end-to-end HRIS inference and
// ST-Matching with the contraction-hierarchy oracle against the Dijkstra
// fallback, plus the CH preprocessing cost — and of the live archive:
// per-batch ingest latency (mean and p95) and query time against a
// compacted store, single-node (hris_query/store), through the sharded
// composite at one shard (hris_query/sharded — the scatter-gather
// abstraction overhead), and with durability on (ingest/durable-batch=10
// pays a per-batch WAL fsync; hris_query/durable reads the same in-memory
// snapshots, so it must stay within 10% of hris_query/store). The
// load/under-capacity and load/over-capacity rows measure the admission-
// gated serving path under sustained closed-loop traffic (see loadBench):
// under capacity the gate must be invisible (zero shed, mean served op time
// within 10% of hris_query/durable — the durable row has no p95, so means
// are the comparable numbers; the load rows' own p95/p99 bound the tail);
// at 2× capacity the gate must shed rather than let p99 grow with offered
// load — served p99 stays bounded by the request deadline. The session rows
// pin the streaming substrate (see sessionBench): session_step is the
// amortized per-point cost of an incremental session, session_full_requery
// the per-point cost of re-inferring the whole prefix instead — the
// streaming speedup is their ratio — and sessions/concurrent=N is the
// shared-engine point throughput under concurrent vehicles.
type BenchReport struct {
	World   string        `json:"world"`
	Results []BenchResult `json:"results"`
}

// benchWarmups pins the measurement protocol for the query benches: each
// engine runs the measured operation this many times before
// testing.Benchmark starts, so one-time costs — CH table sessions, scratch
// pool population, reference-search memo fills — are excluded from every
// recorded op. Without the warm-up, short -benchtime runs fold first-query
// setup allocations into allocs/op and BENCH_N deltas stop being comparable
// across revisions. Every query row (hris_query/*, stmatch/*) goes through
// record(), so they all report AllocsPerOp/BytesPerOp under this protocol.
const benchWarmups = 3

func warmed(run func()) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < benchWarmups; i++ {
			run()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
}

func record(name string, r testing.BenchmarkResult) BenchResult {
	return BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		MsPerOp:     float64(r.NsPerOp()) / 1e6,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// BenchJSON measures the acceleration-layer benchmark suite on cfg's world
// and returns the report as indented JSON. Both oracle modes get their own
// world from the same config, so the measured queries are identical.
func BenchJSON(cfg WorldConfig) ([]byte, error) {
	rep := BenchReport{World: "quick"}
	if cfg.CityRows >= FullConfig().CityRows {
		rep.World = "full"
	}

	for _, mode := range []roadnet.AccelMode{roadnet.AccelCH, roadnet.AccelDijkstra} {
		c := cfg
		c.Accel = mode
		w := NewWorld(c)
		qs := w.Queries(1, 180, c.QueryLen, 111)
		if len(qs) == 0 {
			continue
		}
		q := qs[0].Query
		rep.Results = append(rep.Results, record("hris_query/"+mode.String(),
			testing.Benchmark(warmed(func() { _, _ = w.Eng.InferRoutes(q, w.P) }))))
		rep.Results = append(rep.Results, record("stmatch/"+mode.String(),
			testing.Benchmark(warmed(func() { _, _ = w.ST.Match(q) }))))
	}

	rep.Results = append(rep.Results, liveStoreBench(cfg)...)
	rep.Results = append(rep.Results, loadBench(cfg)...)
	rep.Results = append(rep.Results, sessionBench(cfg)...)

	g := benchGraph(3000, 3)
	rep.Results = append(rep.Results, record("ch_build/n=3000",
		testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if graphalg.BuildCH(g) == nil {
					b.Fatal("BuildCH failed")
				}
			}
		})))

	return json.MarshalIndent(rep, "", "  ")
}

// liveStore is what ingestTimed drives: a bare hist.Store or a composite.
type liveStore interface {
	Ingest(...*traj.Trajectory) hist.IngestStats
	Wait()
	Compact()
}

// ingestTimed runs the fixed-batch ingest workload against st, hand-timing
// each batch, and returns the mean/p95 row under name.
func ingestTimed(name string, st liveStore, trips []*traj.Trajectory, batch int) (BenchResult, bool) {
	lat := make([]time.Duration, 0, (len(trips)+batch-1)/batch)
	for lo := 0; lo < len(trips); lo += batch {
		hi := lo + batch
		if hi > len(trips) {
			hi = len(trips)
		}
		start := time.Now()
		st.Ingest(trips[lo:hi]...)
		lat = append(lat, time.Since(start))
	}
	st.Wait()
	st.Compact()
	if len(lat) == 0 {
		return BenchResult{}, false
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	mean := sum.Nanoseconds() / int64(len(lat))
	return BenchResult{
		Name:       name,
		Iterations: len(lat),
		NsPerOp:    mean,
		MsPerOp:    float64(mean) / 1e6,
		P95NsPerOp: lat[len(lat)*95/100].Nanoseconds(),
	}, true
}

// liveStoreBench measures the online archive: full-path ingestion
// (preprocessing + memtable indexing + snapshot publish) in fixed-size
// batches, hand-timed per batch so the p95 tail is visible, followed by
// end-to-end query benchmarks against the compacted stores — the LSM steady
// state a long-running service converges to. Three store flavors carry the
// same trips: the plain in-memory Store (hris_query/store), the sharded
// composite at one shard (hris_query/sharded — the scatter-gather
// abstraction overhead), and the same one-shard composite opened durably,
// with a per-batch-fsynced WAL (hris_query/durable). The acceptance
// criterion bounds both alternates at 10% over the plain store: one shard
// takes the single-shard fast path on every range query, and the durable
// read path never touches disk. All
// three stores are built before any query is measured, so the three query
// benchmarks run under the same live heap (GC cost per op is comparable) —
// the durability tax shows up in ingest/durable-batch=10 instead, which
// pays one fsync per batch against ingest/batch=10's memory-only publish.
func liveStoreBench(cfg WorldConfig) []BenchResult {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = cfg.CityRows, cfg.CityCols
	ccfg.Hotspots = cfg.Hotspots
	city := sim.GenerateCity(ccfg, cfg.Seed)
	city.Graph.SetAccel(cfg.Accel)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = cfg.Trips
	fcfg.Seed = cfg.Seed
	trips, _ := sim.NewTripEmitter(city, fcfg).Emit(cfg.Trips)

	const batch = 10
	p := core.DefaultParams()
	var out []BenchResult

	st := hist.NewStore(city.Graph, nil, hist.StoreConfig{})
	if r, ok := ingestTimed("ingest/batch=10", st, trips, batch); ok {
		out = append(out, r)
	}

	one := hist.ShardedConfig{Shards: 1, Halo: p.Phi}
	var dst *hist.ShardedStore
	if dir, err := os.MkdirTemp("", "hris-bench-durable-*"); err == nil {
		defer os.RemoveAll(dir)
		if d, _, err := hist.OpenShardedStore(dir, city.Graph, nil, one); err == nil {
			dst = d
			defer dst.Close()
			if r, ok := ingestTimed("ingest/durable-batch=10", dst, trips, batch); ok {
				out = append(out, r)
			}
		}
	}

	sst := hist.NewShardedStore(city.Graph, nil, one)
	ingestTimed("", sst, trips, batch)

	ds := &sim.Dataset{City: city}
	rng := rand.New(rand.NewSource(111))
	qc, ok := ds.GenQuery(cfg.QueryLen, 180, cfg.Noise, fcfg, rng)
	if !ok {
		return out
	}
	queryBench := func(name string, src hist.Source) BenchResult {
		eng := core.NewEngine(src, core.DefaultParams())
		return record(name, testing.Benchmark(warmed(func() {
			_, _ = eng.InferRoutes(qc.Query, p)
		})))
	}
	out = append(out, queryBench("hris_query/store", st))
	out = append(out, queryBench("hris_query/sharded", sst))
	if dst != nil {
		out = append(out, queryBench("hris_query/durable", dst))
	}
	return out
}

// benchGraph builds a connected near-planar digraph for the preprocessing
// benchmark: a √n×√n lattice with perturbed weights plus a sparse set of
// long-range chords (extraPerMille arcs per thousand vertices). Road
// networks are near-planar, which is the regime contraction hierarchies
// are designed for; a uniformly random expander has no hierarchy to
// exploit and contracts pathologically (every contraction step floods the
// graph with shortcuts), which would benchmark the wrong thing.
func benchGraph(n, extraPerMille int) *graphalg.Graph {
	rng := rand.New(rand.NewSource(42))
	g := graphalg.NewGraph(n)
	cols := 1
	for cols*cols < n {
		cols++
	}
	link := func(a, b int) {
		g.AddArc(a, b, 10+90*rng.Float64())
		g.AddArc(b, a, 10+90*rng.Float64())
	}
	for v := 0; v < n; v++ {
		if x := v % cols; x+1 < cols && v+1 < n {
			link(v, v+1)
		}
		if v+cols < n {
			link(v, v+cols)
		}
	}
	for k := 0; k < n*extraPerMille/1000+1; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			link(a, b)
		}
	}
	return g
}
