// Command hris runs History-based Route Inference on a low-sampling-rate
// query trajectory against a generated dataset (see cmd/gendata), printing
// the top-K suggested routes. It can also run the competitor map-matching
// algorithms on the same query for comparison.
//
// Usage:
//
//	hris -data data/ -query query.json [-k 5] [-method hybrid] [-compare]
//	     [-metrics] [-trace] [-http :6060] [-follow]
//
// The query file holds one trip; with -demo, a query is synthesized from
// the archive instead.
//
// Input: every surface reads the trip format with traj's archive scanner,
// in its one grammar: a point is exactly three JSON numbers [x, y, t]; a
// trip is an object whose keys are "id", "points" and "truth", each at most
// once, in exact case. A -query file and a POST /infer body are one trip
// plus an optional integer "deadline_ms" (-query ignores it); a -follow
// line is one trip; a POST /ingest body is {"trips": [trip, ...]}; a POST
// /stream line is one point. A point of two or four numbers, a key in
// another case, a repeated or unknown key, bytes after the value, NaN and
// Inf are all refused.
//
// Live archive: the loaded dataset seeds a versioned store that keeps
// admitting trips while queries run. With -follow, the process reads NDJSON
// trips from stdin (e.g. piped from gendata -stream) and ingests each one;
// every admitted batch becomes visible atomically in a new epoch. With
// -http, POST /ingest admits a list of trips and returns the admit stats
// plus the archive summary.
//
// Sharding: -shards N partitions the live archive into N spatial shards
// (uniform grid over the network bbox, each with its own segment stack,
// merged inside the write that fills it); ingest routes trips to the
// shards whose halo cells their points touch, and queries scatter-gather
// across shards with exact dedup, so results are byte-identical to
// -shards 1. The halo margin is the -phi search radius, which keeps
// boundary queries on the single-shard fast path; /metrics reports
// store.shards, per-shard shard.<i>.* gauges and the scatter.* routing
// counters at every N.
//
// Durability: -data-dir DIR makes the live archive survive restarts — every
// ingested batch is appended to a checksummed write-ahead log under DIR
// before it becomes visible. On startup the store replays the log
// (tolerating a torn final record) and resumes at the recovered epoch.
// -wal-sync picks the log's fsync policy: "always" (default; every batch is
// on disk before ingest returns), "interval" (background fsync every 200ms;
// a crash may lose the last interval) or "off" (fsync only after a merge
// and at shutdown). The files are independent of -shards —
// DIR holds MANIFEST.json and wal.log at any N — so a directory written at
// one shard count reopens at another; only the dataset (-data) must stay
// the same.
//
// Observability: -metrics prints the per-stage cost breakdown (count,
// total, p50/p95/p99/max per pipeline stage — the paper's Figure 9 cost
// attribution) after the run; -trace prints the query's span timeline.
// -http starts a debug server exposing /metrics (the same snapshot as
// JSON), /debug/vars (expvar), /debug/pprof and POST /infer (context-aware
// inference), and keeps the process alive for scraping until
// SIGINT/SIGTERM, then shuts down gracefully. An address that cannot be
// bound is fatal.
//
// Admission control: /infer runs behind a bounded worker queue —
// -max-inflight concurrent inferences (default GOMAXPROCS), -queue-depth
// waiters beyond that (default 4× max-inflight), and 429 once both are
// full. A request whose deadline (the -deadline default or the query's own
// "deadline_ms" field) would expire before inference can start is shed with
// 503 instead of burning a worker on a dead answer. The gate's traffic
// shows up in /metrics under the server.* instruments (inflight,
// queue_wait, shed); bench/ drives this surface over the wire.
//
// Streaming inference: with -http, POST /stream?id=VEHICLE holds one
// long-lived NDJSON exchange per vehicle — one [x, y, t] point per request
// line, answered in order with incremental updates (pairs inferred so far,
// the firm prefix no future point can revise, a provisional route tail) and,
// when the request body ends, a final record carrying the same routes POST
// /infer would return for the completed trace. Each stream's handler owns
// its session from open to final record: at most -max-sessions streams are
// open (429 beyond, 409 for an id already streaming), a session holds at
// most -session-max-points points (the next one finalizes it, flagged
// "truncated"), and a stream with no point for -session-idle gets a final
// error record and its connection closes, which frees its slot; a value
// ≤ 0 lifts the bound. -deadline budgets each point's incremental step.
// With -stream-ingest every cleanly finalized stream trajectory is admitted
// into the live archive, closing the loop from live vehicles to the
// reference history the next queries search. On SIGINT/SIGTERM open streams
// finalize what they have within a 2 s grace (flagged "draining" in the
// final record) before the server shuts down.
//
// Start-up: parseConfig checks every flag before any file is opened. Then
// one goroutine reads network.json while the main goroutine reads
// archive.json, and the store is built once both reads are done, so cold
// start costs max(network, archive) plus the store. Nothing is
// preprocessed: shortest paths run A* on demand, memoised per query pair.
// With -http, the "debug server listening" line reports the three
// durations.
//
// Deadlines: -deadline bounds each inference's wall clock (e.g.
// -deadline 50ms). On expiry the engine degrades gracefully — expired
// pairs fall back to shortest paths and the result is flagged degraded —
// instead of failing. Ctrl-C during inference cancels it promptly.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/geojson"
	"repro/internal/hist"
	"repro/internal/mapmatch"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

const (
	// shutdownTimeout bounds the debug server's graceful shutdown.
	shutdownTimeout = 5 * time.Second
	// drainGrace is each open /stream's finalize window once shutdown
	// begins; it stays below shutdownTimeout so drained streams return
	// inside it.
	drainGrace = 2 * time.Second
)

// config is one run's command line, validated.
type config struct {
	data, query, geojson string
	demo, compare        bool
	seed                 int64
	params               core.Params // DefaultParams with -k, -phi, -method, -deadline
	metrics, trace       bool
	httpAddr             string
	follow               bool
	shards               int
	dataDir              string
	walSync              hist.SyncPolicy
	gate                 core.GateConfig // -max-inflight, -queue-depth
	limits               streamLimits    // -max-sessions, -session-idle, -session-max-points
	ingest               bool            // -stream-ingest
}

// parseConfig parses and checks the command line. Every rejection happens
// here, so a bad flag is reported before any file is opened.
func parseConfig(args []string) (config, error) {
	c := config{params: core.DefaultParams()}
	fs := flag.NewFlagSet("hris", flag.ContinueOnError)
	fs.StringVar(&c.data, "data", "data", "dataset directory from gendata")
	fs.StringVar(&c.query, "query", "", "query trajectory JSON file")
	fs.BoolVar(&c.demo, "demo", false, "synthesize a demo query from the archive")
	fs.IntVar(&c.params.K3, "k", c.params.K3, "number of global routes to suggest (k3, >= 1)")
	method := fs.String("method", "hybrid", "local inference: tgi, nni or hybrid")
	fs.Float64Var(&c.params.Phi, "phi", c.params.Phi, "reference search radius (m, finite and >= 0)")
	fs.BoolVar(&c.compare, "compare", false, "also run incremental/ST-matching/IVMM")
	fs.Int64Var(&c.seed, "seed", 1, "seed for -demo")
	fs.StringVar(&c.geojson, "geojson", "", "write query + suggested routes as GeoJSON to this file")

	fs.BoolVar(&c.metrics, "metrics", false, "print the per-stage cost breakdown after the run")
	fs.BoolVar(&c.trace, "trace", false, "print the query's per-stage span timeline")
	fs.StringVar(&c.httpAddr, "http", "", "serve /metrics, /debug/vars, /debug/pprof, POST /infer and POST /ingest on this address and stay alive")
	fs.DurationVar(&c.params.Deadline, "deadline", 0, "per-query inference budget (e.g. 50ms; 0 = none); on expiry a best-effort degraded result is returned")
	fs.BoolVar(&c.follow, "follow", false, "read NDJSON trips from stdin and ingest them into the live archive")
	fs.IntVar(&c.shards, "shards", 1, "spatial shards for the live archive")
	fs.StringVar(&c.dataDir, "data-dir", "", "persist the live archive under this directory (one write-ahead log); empty = in-memory only")
	walSync := fs.String("wal-sync", "always", "WAL fsync policy with -data-dir: always, interval or off")

	fs.IntVar(&c.gate.MaxInflight, "max-inflight", 0, "max concurrent /infer inferences (< 1 = GOMAXPROCS)")
	fs.IntVar(&c.gate.QueueDepth, "queue-depth", -1, "max /infer requests waiting beyond -max-inflight before 429 (< 0 = 4x max-inflight)")

	// The session bounds target tens of thousands of vehicles: a session's
	// state is a capped local-route set per pair, so max-sessions ×
	// max-points bounds resident memory.
	fs.IntVar(&c.limits.maxSessions, "max-sessions", 16384, "max concurrent /stream sessions before 429 (<= 0 = unlimited)")
	fs.DurationVar(&c.limits.idle, "session-idle", 5*time.Minute, "close a /stream session with no point for this long (<= 0 = never)")
	fs.IntVar(&c.limits.maxPoints, "session-max-points", 4096, "max points per /stream session before forced finalize (<= 0 = unlimited)")
	fs.BoolVar(&c.ingest, "stream-ingest", false, "ingest each finalized /stream trajectory into the live archive")
	if err := fs.Parse(args); err != nil {
		return c, err
	}

	var err error
	if c.walSync, err = hist.ParseSyncPolicy(*walSync); err != nil {
		return c, fmt.Errorf("-wal-sync: %v", err)
	}
	switch *method {
	case "tgi":
		c.params.Method = core.MethodTGI
	case "nni":
		c.params.Method = core.MethodNNI
	case "hybrid":
		c.params.Method = core.MethodHybrid
	default:
		return c, fmt.Errorf("unknown -method %q (want tgi, nni or hybrid)", *method)
	}
	switch {
	case c.shards < 1:
		return c, fmt.Errorf("-shards must be >= 1 (got %d)", c.shards)
	case c.params.K3 < 1:
		return c, fmt.Errorf("-k must be >= 1 (got %d)", c.params.K3)
	case !(c.params.Phi >= 0) || math.IsInf(c.params.Phi, 1):
		return c, fmt.Errorf("-phi must be finite and >= 0 (got %v)", c.params.Phi)
	case c.params.Deadline < 0:
		return c, fmt.Errorf("-deadline must be >= 0 (got %v)", c.params.Deadline)
	case !c.demo && c.query == "" && !c.follow && c.httpAddr == "":
		return c, errors.New("need -query FILE, -demo, -follow or -http")
	}
	return c, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hris: ")
	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		log.Fatal(err)
	}
	params := cfg.params

	// Root context: SIGINT/SIGTERM cancels in-flight inference promptly and
	// triggers the debug server's graceful shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	g, trajs, truths, took := loadDataset(cfg.data)
	var reg *obs.Registry
	if cfg.metrics || cfg.httpAddr != "" {
		reg = obs.New()
	}
	// The dataset seeds a live store; -follow and POST /ingest grow it while
	// the engine answers queries against pinned snapshots. -shards picks how
	// many spatial partitions back it; with -data-dir the store is durable
	// and recovers its post-seed history before serving.
	scfg := hist.ShardedConfig{
		StoreConfig: hist.StoreConfig{Registry: reg, WALSync: cfg.walSync},
		Shards:      cfg.shards,
		Halo:        params.Phi,
	}
	var st *hist.Store
	t0 := time.Now()
	if cfg.dataDir != "" {
		var rs hist.RecoveryStats
		if st, rs, err = hist.OpenShardedStore(cfg.dataDir, g, trajs, scfg); err != nil {
			log.Fatalf("open store: %v", err)
		}
		logRecovery(rs)
	} else {
		st = hist.NewShardedStore(g, trajs, scfg)
	}
	took.store = time.Since(t0)
	eng := core.NewEngineWithRegistry(st, params, reg)
	var srv *http.Server
	if cfg.httpAddr != "" {
		srv = serveDebug(cfg.httpAddr, took, &server{
			eng: eng, gate: core.NewGate(eng, cfg.gate), st: st, params: params, root: ctx,
			streamIngest: cfg.ingest, drainGrace: drainGrace,
			limits: cfg.limits, sm: newSessionMetrics(reg),
		})
	}

	var q *traj.Trajectory
	var truth roadnet.Route
	switch {
	case cfg.demo:
		q, truth = demoQuery(g, trajs, truths, cfg.seed)
	case cfg.query != "":
		q, truth = loadQuery(cfg.query, g)
	}
	if q != nil {
		fmt.Printf("query: %d points, %.1f km span, avg interval %.0f s (low-sampling-rate: %v)\n",
			q.Len(), q.PathLength()/1000, q.AvgInterval(), q.IsLowSamplingRate())

		// -trace rides on the context: the engine records one span per
		// pipeline stage into whatever trace its context carries.
		var tr *obs.Trace
		qctx := ctx
		if cfg.trace {
			tr = obs.StartTrace()
			qctx = obs.WithTrace(ctx, tr)
		}
		res, err := eng.InferRoutesCtx(qctx, q, params)
		tr.Finish()
		if err != nil {
			log.Fatalf("inference failed: %v", err)
		}
		if res.Degraded {
			fmt.Printf("note: deadline %v expired mid-inference; routes below are best-effort (degraded)\n", params.Deadline)
		}
		for i, r := range res.Routes {
			fmt.Printf("route %d: score %.4g, %.1f km, %d segments", i+1, r.Score,
				r.Route.Length(g)/1000, len(r.Route))
			if truth != nil {
				fmt.Printf(", A_L %.3f", eval.AccuracyAL(g, truth, r.Route))
			}
			fmt.Println()
		}
		refs, spliced := 0, 0
		for _, ps := range res.Pairs {
			refs += ps.Refs
			spliced += ps.Spliced
		}
		fmt.Printf("references used: %d (%d spliced) across %d pairs\n", refs, spliced, len(res.Pairs))

		if cfg.trace {
			fmt.Println("\nquery trace (one span per pipeline stage):")
			tr.WriteText(os.Stdout)
		}

		if cfg.geojson != "" {
			if err := writeGeoJSON(cfg.geojson, g, q, truth, res); err != nil {
				log.Fatalf("geojson: %v", err)
			}
			fmt.Printf("wrote %s\n", cfg.geojson)
		}

		if cfg.compare {
			prm := mapmatch.DefaultParams()
			for _, m := range []mapmatch.Matcher{
				mapmatch.NewPointToCurve(g, prm),
				mapmatch.NewIncremental(g, prm),
				mapmatch.NewSTMatcher(g, prm),
				mapmatch.NewIVMM(g, prm),
				mapmatch.NewHMM(g, prm),
			} {
				r, err := m.Match(q)
				if err != nil {
					fmt.Printf("%-15s failed: %v\n", m.Name()+":", err)
					continue
				}
				fmt.Printf("%-15s %.1f km", m.Name()+":", r.Length(g)/1000)
				if truth != nil {
					fmt.Printf(", A_L %.3f", eval.AccuracyAL(g, truth, r))
				}
				fmt.Println()
			}
		}
	}

	if cfg.follow {
		follow(ctx, os.Stdin, st, reg)
	}

	if cfg.metrics {
		fmt.Println("\nper-stage cost breakdown:")
		eng.Metrics().WriteText(os.Stdout)
	}
	if srv != nil {
		log.Printf("run complete; serving debug endpoints on %s (ctrl-c to exit)", cfg.httpAddr)
		<-ctx.Done()
		stop() // restore default signal handling: a second ctrl-c kills us
		shCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		// Shutdown waits for in-flight handlers, including open /stream
		// connections: root cancellation already told each of them to
		// finalize within drainGrace, so they return inside this window.
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("debug server shutdown: %v", err)
		} else {
			log.Printf("debug server stopped")
		}
	}
	// Flush and close the store last — the debug server is down, so no new
	// ingests can race the final WAL sync.
	if err := st.Close(); err != nil {
		log.Fatalf("close store: %v", err)
	}
}

// logRecovery summarizes what OpenShardedStore restored.
func logRecovery(rs hist.RecoveryStats) {
	if rs.Epoch == 0 && rs.TornBytes == 0 {
		return // virgin data directory
	}
	msg := fmt.Sprintf("recovered epoch %d (%d wal batches / %d trips)", rs.Epoch, rs.WALBatches, rs.WALTrips)
	if rs.TornBytes > 0 {
		msg += fmt.Sprintf("; dropped %d bytes of torn wal tail", rs.TornBytes)
	}
	log.Print(msg)
}

// ingestHandler admits a POSTed trip list into the live store through the
// preprocessing pipeline and reports what was admitted plus the resulting
// archive state.
// Queries running concurrently keep their pinned snapshot; the next query
// sees the new epoch.
//
// Durability contract: the store's Ingest only returns after the batch is
// handled per the configured -wal-sync policy, so under "always" a 200
// means the batch is fsynced ("durability": "synced" in the response).
// Under "interval"/"off" a 200 only means the batch was logged to the OS
// ("logged" — a crash inside the sync window can lose it), and without
// -data-dir it is in memory only ("memory"). A WAL write failure returns
// 500 with the batch still admitted in memory, and the store refuses
// further WAL appends ("failed") until reopened.
func ingestHandler(w http.ResponseWriter, r *http.Request, st *hist.Store) {
	if r.Method != http.MethodPost {
		http.Error(w, `POST trips JSON: {"trips": [{"id": "...", "points": [[x, y, t], ...]}, ...]}`, http.StatusMethodNotAllowed)
		return
	}
	// Unlike /infer, admitted trips are retained in the live store for good,
	// so an unbounded body is a memory-exhaustion hazard. 32 MiB is far above
	// any reasonable batch (a trip point is three JSON numbers).
	logs, err := traj.ReadTrips(http.MaxBytesReader(w, r.Body, 32<<20), "trips")
	if err != nil {
		http.Error(w, "bad trips: "+err.Error(), badBodyStatus(err))
		return
	}
	for i, tr := range logs {
		if tr.ID == "" {
			tr.ID = fmt.Sprintf("ingest-%d", i)
		}
	}
	stats := st.Ingest(logs...)
	resp := struct {
		Admitted hist.IngestStats `json:"admitted"`
		Archive  hist.StoreStats  `json:"archive"`
	}{Admitted: stats, Archive: st.Stats()}
	w.Header().Set("Content-Type", "application/json")
	if stats.Durability == hist.DurabilityFailed {
		// The batch is visible in memory but its WAL append failed: it will
		// not survive a restart, which breaks the durability contract the
		// client configured. Surface that as a server error, stats included.
		w.WriteHeader(http.StatusInternalServerError)
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("/ingest: encode response: %v", err)
	}
}

// maxFollowLine bounds one NDJSON trip line — far above any realistic trip
// (a point is three JSON numbers), so hitting it means a broken producer.
const maxFollowLine = 1 << 24

// errLineTooLong reports an oversized -follow line (consumed and skipped).
var errLineTooLong = errors.New("line exceeds size limit")

// readLine returns the next newline-terminated line from br, without the
// terminator. A line longer than max is consumed to its end and reported as
// errLineTooLong so the stream can continue at the next record. A final
// unterminated line comes back alongside io.EOF — the caller decides its
// fate.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		switch {
		case err == bufio.ErrBufferFull && len(buf) <= max:
			continue
		case err == bufio.ErrBufferFull:
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
			return nil, errLineTooLong
		case err != nil:
			return buf, err
		case len(buf) > max+1: // the terminator does not count
			return nil, errLineTooLong
		}
		return buf[:len(buf)-1], nil
	}
}

// follow streams NDJSON trips from in (stdin under -follow) into the live
// store, one line per trip, until EOF or interrupt. Each admitted line
// publishes a new epoch. Malformed and oversized lines are logged, counted
// under the ingest.rejected metric and skipped — a long-running feed
// survives the occasional bad record instead of aborting — and a trailing
// partial line at EOF is rejected rather than ingested as a truncated trip
// (the producer may have died mid-record).
func follow(ctx context.Context, in io.Reader, st *hist.Store, reg *obs.Registry) {
	br := bufio.NewReaderSize(in, 1<<20)
	lines, admitted, rejected := 0, 0, 0
	reject := func(format string, args ...any) {
		rejected++
		reg.Counter(obs.CounterIngestRejected).Inc()
		log.Printf("follow: "+format, args...)
	}
	for ctx.Err() == nil {
		line, err := readLine(br, maxFollowLine)
		if err == errLineTooLong {
			lines++
			reject("skipping line %d: %v (%d bytes max)", lines, err, maxFollowLine)
			continue
		}
		if err == io.EOF && len(bytes.TrimSpace(line)) > 0 {
			lines++
			reject("dropping unterminated final line %d (%d bytes): refusing to ingest a possibly truncated trip", lines, len(line))
		}
		if err != nil {
			if err != io.EOF {
				log.Printf("follow: read: %v", err)
			}
			break
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines++
		tr, _, _, err := traj.ReadTrip(bytes.NewReader(line), "")
		if err != nil {
			reject("skipping line %d: %v", lines, err)
			continue
		}
		if tr.Len() == 0 {
			reject("skipping line %d: trip has no points", lines)
			continue
		}
		if tr.ID == "" {
			tr.ID = fmt.Sprintf("follow-%d", lines)
		}
		stats := st.Ingest(tr)
		admitted += stats.Trips
		fmt.Printf("follow: +%d trips / %d points (epoch %d, %s)\n", stats.Trips, stats.Points, stats.Epoch, stats.Durability)
	}
	s := st.Stats()
	fmt.Printf("follow done: %d lines (%d rejected), %d trips admitted; archive now %d trips / %d points in %d segments (epoch %d, %d compactions)\n",
		lines, rejected, admitted, s.Trajs, s.Points, s.Segments, s.Epoch, s.Compactions)
}

// writeGeoJSON exports the query, ground truth (when known) and suggested
// routes for map visualization, anchored at Beijing for plausible WGS84
// coordinates.
func writeGeoJSON(path string, g *roadnet.Graph, q *traj.Trajectory, truth roadnet.Route, res *core.Result) error {
	w := geojson.NewWriter(geo.LatLon{Lat: 39.9, Lon: 116.4})
	w.AddTrajectory(q, true, map[string]any{"role": "query"})
	if truth != nil {
		w.AddRoute(g, truth, map[string]any{"role": "truth"})
	}
	for i, r := range res.Routes {
		w.AddRoute(g, r.Route, map[string]any{
			"role": "suggestion", "rank": i + 1, "score": r.Score,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return w.Encode(f)
}

// startup is how long cold start's steps took: reading network.json and
// archive.json (concurrently) and opening the live store. -http logs it.
type startup struct {
	network, archive, store time.Duration
}

// loadDataset reads the dataset's network and archive at once, the network
// in a goroutine of its own, and reports how long each read took. The graph
// answers its shortest-path queries with A*, which needs no preprocessing:
// HRIS memoises the bridges of each query pair, so no contraction hierarchy
// is built. A failed read exits through log.Fatalf, the network's first.
func loadDataset(dir string) (*roadnet.Graph, []*traj.Trajectory, map[string]roadnet.Route, startup) {
	type network struct {
		g   *roadnet.Graph
		err error
		d   time.Duration
	}
	netc := make(chan network, 1)
	go func() {
		t0 := time.Now()
		g, err := readNetwork(filepath.Join(dir, "network.json"))
		if err == nil {
			g.SetAccel(roadnet.AccelDijkstra)
		}
		netc <- network{g, err, time.Since(t0)}
	}()
	t0 := time.Now()
	archive := filepath.Join(dir, "archive.json")
	trajs, rawTruth, aerr := readArchive(archive)
	took := startup{archive: time.Since(t0)}
	n := <-netc
	if n.err != nil {
		log.Fatal(n.err)
	}
	if aerr != nil {
		log.Fatal(aerr)
	}
	g := n.g
	took.network = n.d
	truths := make(map[string]roadnet.Route, len(rawTruth))
	for id, route := range rawTruth {
		checkTruth(g, archive, route)
		truths[id] = route
	}
	return g, trajs, truths, took
}

func readNetwork(path string) (*roadnet.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open network: %v (run cmd/gendata first)", err)
	}
	defer f.Close()
	g, err := roadnet.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("read network: %v", err)
	}
	return g, nil
}

func readArchive(path string) ([]*traj.Trajectory, map[string][]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("open archive: %v", err)
	}
	defer f.Close()
	trajs, truth, err := traj.ReadArchive(f)
	if err != nil {
		return nil, nil, fmt.Errorf("read archive: %v", err)
	}
	return trajs, truth, nil
}

// checkTruth exits through log.Fatalf unless every id of a truth route names
// a segment of g: A_L and the GeoJSON export index the network by them.
func checkTruth(g *roadnet.Graph, file string, truth roadnet.Route) {
	for _, id := range truth {
		if id < 0 || id >= g.NumSegments() {
			log.Fatalf("%s: truth segment %d is not in the network (%d segments)", file, id, g.NumSegments())
		}
	}
}

func loadQuery(path string, g *roadnet.Graph) (*traj.Trajectory, roadnet.Route) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("open query: %v", err)
	}
	defer f.Close()
	q, truth, _, err := traj.ReadTrip(f, "deadline_ms")
	if err != nil {
		log.Fatalf("decode query: %v", err)
	}
	q.ID = "query"
	checkTruth(g, path, truth)
	return q, truth
}

// demoQuery downsamples a random high-rate archive trajectory to 3-minute
// sampling and uses its recorded generating route as ground truth.
func demoQuery(g *roadnet.Graph, trajs []*traj.Trajectory, truths map[string]roadnet.Route, seed int64) (*traj.Trajectory, roadnet.Route) {
	rng := rand.New(rand.NewSource(seed))
	var candidates []*traj.Trajectory
	for _, tr := range trajs {
		if !tr.IsLowSamplingRate() && tr.Len() >= 10 && truths[tr.ID] != nil {
			candidates = append(candidates, tr)
		}
	}
	if len(candidates) == 0 {
		log.Fatal("no high-rate archive trajectory suitable for a demo query")
	}
	src := candidates[rng.Intn(len(candidates))]
	q := traj.Downsample(src, 180)
	q.ID = "demo-query"
	return q, truths[src.ID]
}
