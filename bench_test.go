// Package repro's root benchmark harness: in-process benchmarks of the
// query, session, ingest, matcher and preprocessing paths on a compact
// world, for profiling while you work and for verify.sh's allocation gates.
// Reported performance numbers come from the wire-level benchmark in bench/;
// the paper's figures come from cmd/experiments, and internal/eval's tests
// check their shapes.
//
//	go test -run '^$' -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graphalg"
	"repro/internal/hist"
	"repro/internal/mapmatch"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

var (
	benchWorldOnce sync.Once
	benchWorld     *eval.World

	benchWorldDijOnce sync.Once
	benchWorldDij     *eval.World
)

// world returns a shared, lazily built benchmark substrate.
func world(b *testing.B) *eval.World {
	b.Helper()
	benchWorldOnce.Do(func() {
		cfg := eval.QuickConfig()
		cfg.Queries = 3
		benchWorld = eval.NewWorld(cfg)
	})
	return benchWorld
}

// worldDij is the same substrate with the CH oracle disabled (plain
// Dijkstra/A*), the before/after baseline of the acceleration layer.
func worldDij(b *testing.B) *eval.World {
	b.Helper()
	benchWorldDijOnce.Do(func() {
		cfg := eval.QuickConfig()
		cfg.Queries = 3
		cfg.Accel = roadnet.AccelDijkstra
		benchWorldDij = eval.NewWorld(cfg)
	})
	return benchWorldDij
}

// BenchmarkHRISQuery measures one full top-K inference end to end — the
// headline operation of the system. A few untimed queries populate the
// scratch pools, match tables and reference-search memos first, so
// allocs/op is the steady-state number the verify.sh alloc-regression gate
// budgets against (see bench_budget.json).
func BenchmarkHRISQuery(b *testing.B) {
	w := world(b)
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 111)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	for i := 0; i < 3; i++ {
		_, _ = w.Eng.InferRoutes(qs[0].Query, w.P)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Eng.InferRoutes(qs[0].Query, w.P)
	}
}

// BenchmarkSessionStep measures absorbing one point into a streaming
// inference session — the per-update cost a live vehicle feed pays, and the
// number the streaming substrate's whole point rests on: it must stay far
// below BenchmarkHRISQuery (re-running the full inference per point), and
// its allocs/op is budgeted by the verify.sh alloc-regression gate (see
// bench_budget.json). The two warm-up passes populate the pooled scratch
// and the reference memo (which admits a pair on its second miss); the
// finalize-and-reopen between passes stays off the clock, so the measured op
// is the steady-state incremental step.
func BenchmarkSessionStep(b *testing.B) {
	w := world(b)
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 111)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	q := qs[0].Query
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ {
		warm := w.Eng.NewSession(w.P, core.SessionConfig{})
		for _, pt := range q.Points {
			if _, err := warm.Push(ctx, pt); err != nil {
				b.Fatal(err)
			}
		}
		warm.Close()
	}
	b.ReportAllocs()
	s := w.Eng.NewSession(w.P, core.SessionConfig{})
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == q.Len() {
			b.StopTimer()
			if _, err := s.Finalize(); err != nil {
				b.Fatal(err)
			}
			s.Close()
			s = w.Eng.NewSession(w.P, core.SessionConfig{})
			j = 0
			b.StartTimer()
		}
		if _, err := s.Push(ctx, q.Points[j]); err != nil {
			b.Fatal(err)
		}
		j++
	}
	b.StopTimer()
	s.Close()
}

// BenchmarkNNIConvert measures one warm NNI pair: transit-trace enumeration
// plus the conversion of every trace to a route (Algorithm 2 line 3), the
// largest stage of the replayed server workload. The pair is fixed — of the
// benchmark query's pairs, the first with the most NNI routes — and the
// warm-up runs have filled the match tables, the reference memo and the
// pooled arena, so allocs/op is what a steady-state NNI pair allocates: the
// routes and reference lists it publishes, and the bridges it searches.
func BenchmarkNNIConvert(b *testing.B) { benchWarmPair(b, core.MethodNNI) }

// BenchmarkTGIPair is BenchmarkNNIConvert's twin for the other local method:
// one warm TGI pair — traverse graph, augmentation, reduction, K shortest
// paths between every candidate-edge pair, projection — on the pair with the
// most TGI routes. Reported, not gated.
func BenchmarkTGIPair(b *testing.B) { benchWarmPair(b, core.MethodTGI) }

// benchWarmPair times PairLocalRoutes with method m on the benchmark query's
// pair with the most routes. The scan is the pair's first run; a second
// untimed run admits it to the reference memo, so the timed runs hit.
func benchWarmPair(b *testing.B, m core.Method) {
	w := world(b)
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 111)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	pts := qs[0].Query.Points
	pair, most := 0, -1
	for i := 0; i+1 < len(pts); i++ {
		if locals, _ := w.Eng.PairLocalRoutes(pts[i], pts[i+1], m, w.P); len(locals) > most {
			pair, most = i, len(locals)
		}
	}
	if most < 1 {
		b.Skipf("no pair with %v routes", m)
	}
	timePair(b, w, pts[pair], pts[pair+1], m)
}

// timePair runs one more untimed PairLocalRoutes on ⟨qi, qj⟩, which admits
// the pair to the reference memo, then times it.
func timePair(b *testing.B, w *eval.World, qi, qj traj.GPSPoint, m core.Method) {
	_, _ = w.Eng.PairLocalRoutes(qi, qj, m, w.P)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Eng.PairLocalRoutes(qi, qj, m, w.P)
	}
}

// BenchmarkBridges replays the bridges one warm query asks — the distinct
// vertex pairs each of its pairs' local inference joins with a shortest path
// (core.PairBridges) — through the contraction hierarchy and through A*, on
// the bench/ world of scale s (a 22×22 city with 1,200 trips) and on a
// 64×64 city. ns/op is one replay of the whole list; us/bridge is the
// per-bridge cost, the number the CH's verdict weighs against network size.
func BenchmarkBridges(b *testing.B) {
	for _, size := range []struct {
		name             string
		rows, hot, trips int
	}{{"s", 22, 10, 1200}, {"64x64", 64, 24, 1500}} {
		bridgeWorldsOnce[size.name].Do(func() {
			cfg := eval.WorldConfig{
				Seed: 7, CityRows: size.rows, CityCols: size.rows, Hotspots: size.hot,
				Trips: size.trips, QueryLen: 15000, Noise: 15,
			}
			bridgeWorlds[size.name] = newBridgeWorld(cfg)
		})
		bw := bridgeWorlds[size.name]
		if len(bw.bridges) == 0 {
			b.Fatalf("%s: the query asked no bridges", size.name)
		}
		for _, accel := range []roadnet.AccelMode{roadnet.AccelCH, roadnet.AccelDijkstra} {
			g := bw.graphs[accel]
			b.Run(size.name+"/"+accel.String(), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, uv := range bw.bridges {
						if _, _, ok := g.EdgePathBetweenVertices(uv[0], uv[1]); !ok {
							b.Fatalf("no route %d→%d", uv[0], uv[1])
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(bw.bridges)), "us/bridge")
			})
		}
	}
}

// bridgeWorld is BenchmarkBridges' input: the bridges of one query and its
// road network loaded twice, once per accelerator, each oracle built.
type bridgeWorld struct {
	bridges [][2]roadnet.VertexID
	graphs  map[roadnet.AccelMode]*roadnet.Graph
}

var (
	bridgeWorldsOnce = map[string]*sync.Once{"s": new(sync.Once), "64x64": new(sync.Once)}
	bridgeWorlds     = map[string]*bridgeWorld{}
)

func newBridgeWorld(cfg eval.WorldConfig) *bridgeWorld {
	w := eval.NewWorld(cfg)
	bw := &bridgeWorld{graphs: map[roadnet.AccelMode]*roadnet.Graph{}}
	for _, qc := range w.Queries(1, 180, cfg.QueryLen, 111) {
		pts := qc.Query.Points
		_, _ = w.Eng.InferRoutes(qc.Query, w.P) // warm: match tables and memo
		for i := 0; i+1 < len(pts); i++ {
			bw.bridges = append(bw.bridges, core.PairBridges(w.Eng, pts[i], pts[i+1], w.P.Method, w.P)...)
		}
	}
	var net bytes.Buffer
	if err := w.Graph().WriteJSON(&net); err != nil {
		panic(err)
	}
	for _, accel := range []roadnet.AccelMode{roadnet.AccelCH, roadnet.AccelDijkstra} {
		g, err := roadnet.ReadJSON(bytes.NewReader(net.Bytes()))
		if err != nil {
			panic(err)
		}
		g.SetAccel(accel)
		g.Oracle()
		bw.graphs[accel] = g
	}
	return bw
}

// BenchmarkSplicedPair times one warm pair of the shape that dominates fresh
// traffic's pair time: the benchmark world's pair with the most spliced
// references (Definition 7), over a scan of sparsely sampled queries, run
// with the default hybrid method. Its pair context joins each T_a run to
// every partner it is spliced to. Reported, not gated.
func BenchmarkSplicedPair(b *testing.B) {
	w := world(b)
	var qi, qj traj.GPSPoint
	most := 0
	for _, qc := range w.Queries(6, 600, w.Cfg.QueryLen, 113) {
		pts := qc.Query.Points
		for i := 0; i+1 < len(pts); i++ {
			if _, st := w.Eng.PairLocalRoutes(pts[i], pts[i+1], w.P.Method, w.P); st.Spliced > most {
				qi, qj, most = pts[i], pts[i+1], st.Spliced
			}
		}
	}
	if most == 0 {
		b.Skip("no pair with spliced references")
	}
	timePair(b, w, qi, qj, w.P.Method)
	b.ReportMetric(float64(most), "spliced-refs")
}

// BenchmarkHRISQueryDijkstra is BenchmarkHRISQuery on the Dijkstra-oracle
// world: the no-acceleration baseline. Comparing the two shows the CH
// speedup end to end; this one must stay within noise of the pre-CH seed.
func BenchmarkHRISQueryDijkstra(b *testing.B) {
	w := worldDij(b)
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 111)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Eng.InferRoutes(qs[0].Query, w.P)
	}
}

// BenchmarkHRISQueryStore is BenchmarkHRISQuery against a live store that
// ingested the same archive in batches and then compacted — the LSM steady
// state a long-running service converges to. It must stay within noise of
// the bulk-archive number: after compaction both serve one STR-packed tree.
func BenchmarkHRISQueryStore(b *testing.B) {
	w := world(b)
	st := hist.NewStore(w.Graph(), nil, hist.StoreConfig{CompactSegments: 1 << 30})
	const batch = 25
	for lo := 0; lo < len(w.DS.Archive); lo += batch {
		hi := lo + batch
		if hi > len(w.DS.Archive) {
			hi = len(w.DS.Archive)
		}
		st.IngestTrips(w.DS.Archive[lo:hi]...)
	}
	st.Compact()
	eng := core.NewEngine(st, core.DefaultParams())
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 111)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eng.InferRoutes(qs[0].Query, w.P)
	}
}

// BenchmarkHRISQuerySharded is BenchmarkHRISQueryStore with the store at
// four shards: the same archive, batch ingest, compaction and
// query, but every range query goes through the partition's scatter-gather
// path (or the single-shard fast path when the box fits a halo cell). The
// gap against BenchmarkHRISQueryStore is the spatial-sharding overhead.
func BenchmarkHRISQuerySharded(b *testing.B) {
	w := world(b)
	st := hist.NewShardedStore(w.Graph(), nil, hist.ShardedConfig{
		StoreConfig: hist.StoreConfig{CompactSegments: 1 << 30},
		Shards:      4,
		Halo:        w.P.Phi,
	})
	const batch = 25
	for lo := 0; lo < len(w.DS.Archive); lo += batch {
		hi := lo + batch
		if hi > len(w.DS.Archive) {
			hi = len(w.DS.Archive)
		}
		st.IngestTrips(w.DS.Archive[lo:hi]...)
	}
	st.Compact()
	st.Wait()
	eng := core.NewEngine(st, core.DefaultParams())
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 111)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eng.InferRoutes(qs[0].Query, w.P)
	}
}

// BenchmarkIngest measures admitting one 10-trip batch into a live store —
// segment indexing plus snapshot publication, with background compaction
// running at its default cadence. The tail matters more than the mean for a
// live feed, so the p95 per-batch latency is reported alongside ns/op.
func BenchmarkIngest(b *testing.B) {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 12, 12
	city := sim.GenerateCity(ccfg, 1)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Seed = 1
	trips, _ := sim.NewTripEmitter(city, fcfg).Emit(500)
	const batch = 10
	lat := make([]time.Duration, 0, b.N)
	st := hist.NewStore(city.Graph, nil, hist.StoreConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Periodically restart from an empty store (outside the timer) so
		// the benchmark measures steady-state batches, not unbounded growth.
		if i > 0 && i%64 == 0 {
			b.StopTimer()
			st.Wait()
			st = hist.NewStore(city.Graph, nil, hist.StoreConfig{})
			b.StartTimer()
		}
		lo := (i * batch) % (len(trips) - batch)
		start := time.Now()
		st.IngestTrips(trips[lo : lo+batch]...)
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	st.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*95/100].Nanoseconds()), "p95-ns/op")
}

// BenchmarkIngestDurable is BenchmarkIngest with the write-ahead log on and
// fsynced per batch (SyncAlways) — the durability tax a live feed pays for
// acknowledged-means-on-disk. Compare against BenchmarkIngest for the
// in-memory baseline.
func BenchmarkIngestDurable(b *testing.B) {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 12, 12
	city := sim.GenerateCity(ccfg, 1)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Seed = 1
	trips, _ := sim.NewTripEmitter(city, fcfg).Emit(500)
	const batch = 10
	lat := make([]time.Duration, 0, b.N)
	open := func() *hist.Store {
		st, _, err := hist.OpenShardedStore(b.TempDir(), city.Graph, nil, hist.ShardedConfig{Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	st := open()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%64 == 0 {
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			st = open()
			b.StartTimer()
		}
		lo := (i * batch) % (len(trips) - batch)
		start := time.Now()
		st.IngestTrips(trips[lo : lo+batch]...)
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*95/100].Nanoseconds()), "p95-ns/op")
}

// BenchmarkSTMatch measures one ST-Matching run. Its candidate-pair
// distance tables come from graphalg.DistanceTable — one Dijkstra per
// previous candidate, stopped once every current candidate has settled —
// and not from the oracle, so the two oracle modes time the same tables.
func BenchmarkSTMatch(b *testing.B) {
	w := world(b)
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 113)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.ST.Match(qs[0].Query)
	}
}

// BenchmarkCHBuild measures contraction-hierarchy preprocessing on the
// benchmark world's road network — the one-off cost the query-time wins
// amortize.
func BenchmarkCHBuild(b *testing.B) {
	w := world(b)
	g := w.Graph().VertexGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graphalg.BuildCH(g) == nil {
			b.Fatal("BuildCH failed")
		}
	}
}

// BenchmarkHRISQueryDegraded is the same query with an already-expired
// deadline: the whole pipeline short-circuits into shortest-path fallbacks
// plus the greedy K-GRI finish. This is the floor cost of graceful
// degradation — the acceptance bar is well under 50 ms on this world.
func BenchmarkHRISQueryDegraded(b *testing.B) {
	w := world(b)
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 111)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	p := w.P
	p.Deadline = time.Nanosecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.Eng.InferRoutesCtx(context.Background(), qs[0].Query, p)
		if err != nil || !res.Degraded {
			b.Fatalf("expected degraded result, got err=%v", err)
		}
	}
}

// BenchmarkHRISQueryObserved is the same query on an engine wired to an
// obs.Registry — compare against BenchmarkHRISQuery (whose engine has no
// registry and takes the zero-clock-read path) to see the instrumentation
// cost, and to verify the no-op path itself stays within noise of the seed.
func BenchmarkHRISQueryObserved(b *testing.B) {
	w := world(b)
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 111)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	eng := core.NewEngineWithRegistry(w.Eng.Source(), w.P, obs.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eng.InferRoutes(qs[0].Query, w.P)
	}
}

// BenchmarkPairContext isolates pair-context assembly on warm state: the
// candidate_search stage, which reads each reference's runs off the archive
// match tables (built by the untimed first query) and ORs its id bits into
// the traverse-edge sets. The stage histogram of an observed
// engine times exactly that call, so the benchmark reports its mean per
// query pair as ns/pair beside the whole query's ns/op.
func BenchmarkPairContext(b *testing.B) {
	w := world(b)
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 111)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	eng := core.NewEngineWithRegistry(w.Eng.Source(), w.P, obs.New())
	for i := 0; i < 2; i++ { // the second run's misses admit the pairs to the memo
		_, _ = eng.InferRoutes(qs[0].Query, w.P)
	}
	warm := eng.Metrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = eng.InferRoutes(qs[0].Query, w.P)
	}
	b.StopTimer()
	m := eng.Metrics()
	if m.Counters["cache.trajmatch.builds"] != warm.Counters["cache.trajmatch.builds"] {
		b.Fatal("timed queries built match tables: the benchmark is not warm")
	}
	before, after := warm.Stages[obs.StageCandidateSearch], m.Stages[obs.StageCandidateSearch]
	b.ReportMetric(float64(after.Sum-before.Sum)/float64(after.Count-before.Count), "ns/pair")
}

// BenchmarkCompetitors measures the three map-matching baselines on the
// same query for the Figure 8 cost context.
func BenchmarkCompetitors(b *testing.B) {
	w := world(b)
	qs := w.Queries(1, 180, w.Cfg.QueryLen, 113)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	prm := mapmatch.DefaultParams()
	g := w.Graph()
	matchers := []mapmatch.Matcher{
		mapmatch.NewPointToCurve(g, prm), w.Incremental, w.ST, w.IVMM,
		mapmatch.NewHMM(g, prm),
	}
	for _, m := range matchers {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = m.Match(qs[0].Query)
			}
		})
	}
}

// BenchmarkNetworkFree measures one network-free inference (extension E2).
func BenchmarkNetworkFree(b *testing.B) {
	w := world(b)
	qs := w.Queries(1, 240, w.Cfg.QueryLen, 115)
	if len(qs) == 0 {
		b.Skip("no query")
	}
	vmax := w.Graph().MaxSpeed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Eng.InferPathsNetworkFreeCtx(context.Background(), qs[0].Query, w.P, vmax)
	}
}

// BenchmarkArchiveBuild measures preprocessing: dataset simulation plus
// indexing all archive points in cell grids.
func BenchmarkArchiveBuild(b *testing.B) {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 12, 12
	city := sim.GenerateCity(ccfg, 1)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := sim.BuildDataset(city, fcfg)
		hist.NewArchive(city.Graph, ds.Archive)
	}
}

// BenchmarkReferenceSearchRoot measures the Definition 6/7 search on the
// shared world.
func BenchmarkReferenceSearchRoot(b *testing.B) {
	w := world(b)
	rng := rand.New(rand.NewSource(9))
	qc, ok := w.DS.GenQuery(w.Cfg.QueryLen, 180, 15, w.Fleet, rng)
	if !ok {
		b.Skip("no query")
	}
	sp := hist.SearchParams{Phi: 500, SpliceEps: 200, SpliceMinSimple: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist.References(w.Archive, qc.Query.Points[0], qc.Query.Points[1], sp)
	}
}
