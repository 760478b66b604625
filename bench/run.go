package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/hist"
	"repro/internal/roadnet"
)

// config is what one run is made from. The command line sets seed and
// seconds; the rest are the benchmark's fixed shape, which only the smoke
// test shrinks.
type config struct {
	seed    int64
	seconds float64

	rows, cols, hotspots, trips int // the city and archive of cmd/gendata's defaults

	warmup int // unmeasured requests before the measured interval
	setups int // server launches timed for setup_s; the median is reported
	// Generated inputs per measured second: comfortably above what the
	// server can consume, so a run ends on the clock and not on exhaustion.
	queriesPerSecond, sessionsPerSecond int
	// Answered requests per measured second after which peak memory is read,
	// the same on every workload: a third of what the slowest server answers
	// (ingest-mix's reader), so the mark is passed early in the interval.
	markPerSecond int
	replayPool    int // distinct queries infer-replay cycles over
	sample        int // queries the traced pass times layer by layer, at most
	sampleBatches int // ingest batches the traced pass times
	checked       int // answers compared against the in-process engine

	root, outDir string
}

func defaultConfig() config {
	return config{
		seed: 7, seconds: 15,
		rows: 22, cols: 22, hotspots: 10, trips: 1200,
		warmup: 50, setups: 15,
		queriesPerSecond: 700, sessionsPerSecond: 120, markPerSecond: 70,
		replayPool: 64, sample: 150, sampleBatches: 40, checked: 200,
	}
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics every workload reports, untraced and
// traced respectively. BENCHMARK.json names the same sets; the smoke test
// fails if the two drift apart.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
	{"accuracy_al", "ratio"},
}

var perLayer = []metricDef{
	{"hist.refsearch_us", "us"}, {"hist.refsearch_refs", "count"}, {"hist.refsearch_allocs", "count"},
	{"hist.sharded_refsearch_us", "us"},
	{"rtree.range_us", "us"}, {"rtree.range_hits", "count"},
	{"roadnet.cand_us", "us"},
	{"graphalg.ch_build_ms", "ms"}, {"graphalg.dist_ch_us", "us"}, {"graphalg.dist_dijkstra_us", "us"},
	{"graphalg.yen_us", "us"},
	{"core.pair_cold_us", "us"}, {"core.pair_warm_us", "us"},
	{"core.tgi_us", "us"}, {"core.nni_us", "us"}, {"core.tgi_share", "ratio"},
	{"core.kgri_us", "us"},
	{"core.infer_cold_us", "us"}, {"core.infer_warm_us", "us"},
	{"core.infer_allocs", "count"}, {"core.infer_bytes", "B"},
	{"core.gate_overhead_us", "us"},
	{"core.session_push_us", "us"}, {"core.session_finalize_us", "us"}, {"core.session_push_allocs", "count"},
	{"http.infer_overhead_us", "us"}, {"http.stream_overhead_us", "us"},
	{"http.latency_p99_ms", "ms"}, {"http.resp_bytes", "B"},
	{"http.ingest_ack_p50_ms", "ms"}, {"http.ingest_ack_p95_ms", "ms"},
	{"hist.open_ms", "ms"},
	{"hist.ingest_us", "us"}, {"hist.ingest_durable_us", "us"}, {"hist.wal_tax_us", "us"},
	{"hist.compact_ms", "ms"}, {"hist.recovery_ms", "ms"}, {"hist.bytes_per_trip", "B"},
	{"hist.memo_hit_ratio", "ratio"}, {"hist.memo_resets", "count"}, {"hist.memo_invalidations", "count"},
	{"roadnet.cand_hit_ratio", "ratio"},
	{"hist.compactions", "count"}, {"hist.epochs", "count"},
	{"core.coalesced", "count"}, {"core.shed", "count"}, {"core.fallback_local", "count"},
	{"runtime.gc_cycles", "count"},
	{"driver.cpu_share", "ratio"}, {"driver.late_p95_ms", "ms"}, {"driver.gen_s", "s"},
	{"bench.trace_overhead_pct", "%"},
}

var workloads = []string{"infer-fresh", "infer-replay", "stream-fleet", "ingest-mix"}

// measured is one metric value and the number of samples behind it.
type measured struct {
	v float64
	n int
}

type values map[string]measured

func (vs values) set(name string, v float64, n int) { vs[name] = measured{v, n} }

// outcome is what one run of one workload reports.
type outcome struct {
	workload          string
	traced            bool
	attempted, failed int
	problems          []string // output checks that did not hold
	vals              values
	p50Spread         float64 // drift of latency_p50_ms across the run's fifths
	maxQuery          int     // highest index of an answered query: the size of the working set
}

func (o *outcome) correct() bool { return len(o.problems) == 0 }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// serverArgs are the flags of the workload's server, beyond -http.
func serverArgs(workload, dataDir, walDir string) []string {
	args := []string{"-data", dataDir}
	if workload == "ingest-mix" {
		args = append(args, "-data-dir", walDir, "-wal-sync", "always", "-shards", fmt.Sprint(shards))
	}
	return args
}

// runWorkload runs one workload once: generate inputs, launch the server,
// warm up, measure for cfg.seconds, check the outputs, and with traced set
// run the layer ledger. It leaves nothing running and no temporary files.
func runWorkload(ctx context.Context, cfg config, workload string, traced bool) (*outcome, error) {
	out := &outcome{workload: workload, traced: traced, vals: values{}}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	nQueries := cfg.warmup + int(math.Ceil(cfg.seconds*float64(cfg.queriesPerSecond)))
	nBatches := 0
	switch workload {
	case "infer-replay":
		nQueries = cfg.replayPool
	case "stream-fleet":
		nQueries = cfg.warmup + int(math.Ceil(cfg.seconds*float64(cfg.sessionsPerSecond)))
	case "ingest-mix":
		nBatches = int(cfg.seconds/ingestPeriod.Seconds()) + 1
	}
	if traced {
		nBatches = max(nBatches, cfg.sampleBatches)
	}
	t0 := time.Now()
	w, err := genWorld(cfg, workload, tmp, nQueries, nBatches)
	if err != nil {
		return nil, err
	}
	genSeconds := time.Since(t0).Seconds()

	bin, err := buildServer(ctx, cfg.root, cfg.outDir)
	if err != nil {
		return nil, err
	}

	// Set-up is timed on several fresh launches; the last one stays up.
	var srv *server
	var setups []float64
	var walDir string
	for i := 0; i < cfg.setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				out.problem("%v", err)
			}
		}
		walDir = filepath.Join(tmp, fmt.Sprintf("wal-%d", i)) // a virgin store per launch
		var took time.Duration
		srv, took, err = startServer(ctx, bin, serverArgs(workload, w.dataDir, walDir), w.queries[0].body)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	d := &driver{base: srv.base, w: w, next: sequential(0, len(w.queries))}
	if workload == "infer-replay" {
		d.next = replayOrder(cfg.seed, cfg.replayPool)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		d.tracer = tr
	}
	d.drive(workload, opsBudget(cfg.warmup), &phase{})

	c0, err := srv.counters()
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	var rss float64
	var rssErr error
	rec := &phase{
		markOps: int(math.Ceil(cfg.seconds * float64(cfg.markPerSecond))),
		atMark:  func() { rss, rssErr = srv.rssPeakMB() },
	}
	d.drive(workload, budget{until: time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))}, rec)
	self1 := selfCPUSeconds()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if len(rec.lat) < rec.markOps {
		return nil, fmt.Errorf("%s: %d requests answered in %.1fs, fewer than the %d after which rss_peak_mb is read",
			workload, len(rec.lat), cfg.seconds, rec.markOps)
	}
	c1, err := srv.counters()
	if err != nil {
		return nil, err
	}

	// Checks and probes that need the live server.
	if workload == "stream-fleet" {
		// A quarter as many sessions as answers elsewhere: each costs a whole
		// /infer of a long trace to check.
		checkStreamEqualsInfer(d, rec.answers[:min(len(rec.answers), cfg.checked/4)], out)
	}
	if traced {
		sample := w.queries[:min(cfg.sample, len(w.queries))]
		batches := w.batchTrips[:min(cfg.sampleBatches, len(w.batchTrips))]
		if err := ledger(tr, srv.base, w.dataDir, tmp, sample, batches, out.vals); err != nil {
			return nil, err
		}
	}
	if workload == "ingest-mix" {
		// A crash, not a shutdown: what was acknowledged must already be on disk.
		srv.kill()
	} else if err := srv.stop(); err != nil {
		out.problem("%v", err)
	}
	stopped = true

	g, trajs, err := loadDataset(w.dataDir)
	if err != nil {
		return nil, err
	}
	switch workload {
	case "infer-fresh", "infer-replay":
		st := hist.NewStore(g, trajs, hist.StoreConfig{})
		checkAgainstEngine(core.NewEngine(st, core.DefaultParams()), w, rec.answers[:min(len(rec.answers), cfg.checked)], out)
	case "ingest-mix":
		cfgS := hist.ShardedConfig{Shards: shards, Halo: core.DefaultParams().Phi}
		rst, rs, err := hist.OpenShardedStore(walDir, g, trajs, cfgS)
		if err != nil {
			out.problem("reopen after SIGKILL: %v", err)
		} else {
			if rs.Epoch < rec.maxEpoch {
				out.problem("recovered epoch %d < acknowledged epoch %d", rs.Epoch, rec.maxEpoch)
			}
			rst.CloseAbrupt()
		}
	}
	acc, bad := grade(g, w, rec.answers)
	for _, a := range rec.answers {
		out.maxQuery = max(out.maxQuery, a.q)
	}
	out.attempted = rec.attempted
	out.failed = rec.failed + bad

	elapsed := rec.elapsed.Seconds()
	out.p50Spread = fifthsSpread(rec.lat, 50)
	vs := out.vals
	vs.set("setup_s", median(setups), len(setups))
	vs.set("latency_p50_ms", percentile(rec.lat, 50), len(rec.lat))
	vs.set("latency_p95_ms", percentile(rec.lat, 95), len(rec.lat))
	vs.set("throughput_ops_s", float64(len(rec.lat))/elapsed, len(rec.lat))
	vs.set("cpu_ms_per_op", 1e3*(cpu1-cpu0)/float64(rec.ops), rec.ops)
	vs.set("rss_peak_mb", rss, 1)
	vs.set("accuracy_al", mean(acc), len(acc))
	if !traced {
		return out, nil
	}

	vs.set("http.latency_p99_ms", percentile(rec.lat, 99), len(rec.lat))
	vs.set("http.resp_bytes", float64(rec.respBytes)/float64(len(rec.lat)), len(rec.lat))
	vs.set("http.ingest_ack_p50_ms", percentile(rec.ack, 50), len(rec.ack))
	vs.set("http.ingest_ack_p95_ms", percentile(rec.ack, 95), len(rec.ack))
	vs.set("driver.late_p95_ms", percentile(rec.late, 95), len(rec.late))
	self, server := self1-self0, cpu1-cpu0
	vs.set("driver.cpu_share", self/(self+server), 1)
	vs.set("driver.gen_s", genSeconds, 1)
	delta := func(name string) float64 { return float64(c1[name] - c0[name]) }
	hitRatio := func(metric, hits, misses string) {
		h, m := delta(hits), delta(misses)
		r := 0.0
		if h+m > 0 {
			r = h / (h + m)
		}
		vs.set(metric, r, int(h+m))
	}
	hitRatio("hist.memo_hit_ratio", "cache.refsearch.hits", "cache.refsearch.misses")
	hitRatio("roadnet.cand_hit_ratio", "cache.candidates.hits", "cache.candidates.misses")
	for metric, counter := range map[string]string{
		"hist.memo_resets":        "cache.refsearch.resets",
		"hist.memo_invalidations": "cache.refsearch.invalidations",
		"hist.compactions":        "store.compactions",
		"hist.epochs":             "archive.epoch",
		"core.coalesced":          "server.coalesced",
		"core.shed":               "server.shed",
		"core.fallback_local":     "fallback.local",
		"runtime.gc_cycles":       "runtime.gc.cycles",
	} {
		vs.set(metric, delta(counter), 1)
	}
	return out, tr.write(filepath.Join(cfg.outDir, "trace-"+workload+".json"))
}

// reply is the part of an /infer body or a /stream final record the checks
// read.
type reply struct {
	Routes    []routeJSON `json:"routes"`
	Degraded  bool        `json:"degraded"`
	Draining  bool        `json:"draining"`
	Truncated bool        `json:"truncated"`
	Error     string      `json:"error"`
}

type routeJSON struct {
	Segments roadnet.Route `json:"segments"`
	Score    float64       `json:"score"`
}

func parseReply(body []byte) (reply, bool) {
	var r reply
	if json.Unmarshal(body, &r) != nil || r.Degraded || r.Draining || r.Truncated || r.Error != "" || len(r.Routes) == 0 {
		return r, false
	}
	return r, true
}

func sameRoutes(a, b reply) bool {
	return slices.EqualFunc(a.Routes, b.Routes, func(x, y routeJSON) bool {
		return x.Score == y.Score && slices.Equal(x.Segments, y.Segments)
	})
}

// grade scores every answer's top route against the route that generated the
// query (the paper's A_L) and counts answers that are not full answers:
// degraded, cut short, or empty.
func grade(g *roadnet.Graph, w *world, answers []answer) (acc []float64, bad int) {
	for _, a := range answers {
		r, ok := parseReply(a.body)
		if !ok {
			bad++
			continue
		}
		acc = append(acc, eval.AccuracyAL(g, w.queries[a.q].truth, r.Routes[0].Segments))
	}
	return acc, bad
}

// checkAgainstEngine requires the served answers to carry exactly the routes
// and scores the engine computes in-process from the same dataset files.
func checkAgainstEngine(eng *core.Engine, w *world, answers []answer, out *outcome) {
	for _, a := range answers {
		got, ok := parseReply(a.body)
		if !ok {
			continue // counted as a failed operation by grade
		}
		res, err := eng.InferRoutesCtx(context.Background(), w.queries[a.q].traj, core.DefaultParams())
		if err != nil {
			out.problem("query %d: served but fails in-process: %v", a.q, err)
			return
		}
		var want reply
		for _, gr := range res.Routes {
			want.Routes = append(want.Routes, routeJSON{gr.Route, gr.Score})
		}
		if !sameRoutes(got, want) {
			out.problem("query %d: served routes differ from the in-process engine's", a.q)
			return
		}
	}
}

// checkStreamEqualsInfer requires a session's final record to carry the
// routes /infer returns for the same points.
func checkStreamEqualsInfer(d *driver, finals []answer, out *outcome) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	for _, a := range finals {
		fin, ok := parseReply(a.body)
		if !ok {
			continue
		}
		code, body, err := post(hc, d.base+"/infer", d.w.queries[a.q].body)
		whole, ok := parseReply(body)
		if err != nil || code != 200 || !ok || !sameRoutes(fin, whole) {
			out.problem("trip %d: /stream final record differs from /infer on the same points", a.q)
			return
		}
	}
}
