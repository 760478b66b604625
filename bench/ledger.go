package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graphalg"
	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one request share Request; Parent is the ID of the span that
// caused this one, -1 for a root. Times are nanoseconds since the trace
// began. A span's self time is its duration minus its children's.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Mallocs uint64 `json:"mallocs,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished root span; safe from concurrent clients.
func (t *tracer) add(name string, request int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Request: request, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) begin(name string, parent, request int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: request, Name: name})
	id := len(t.spans) - 1
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call times fn as a child span. With mem set it also charges the span with
// the process-wide malloc and byte counts across the call; the two
// ReadMemStats calls sit outside the timed window.
func (t *tracer) call(name string, parent, request int, mem bool, fn func()) {
	var m0, m1 runtime.MemStats
	if mem {
		runtime.ReadMemStats(&m0)
	}
	id := t.begin(name, parent, request)
	fn()
	t.end(id)
	if mem {
		runtime.ReadMemStats(&m1)
		t.spans[id].Mallocs = m1.Mallocs - m0.Mallocs
		t.spans[id].Bytes = m1.TotalAlloc - m0.TotalAlloc
	}
}

// us returns the durations, in microseconds, of every span with this name.
func (t *tracer) us(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (t *tracer) mem(name string) (mallocs, bytes []float64) {
	for _, s := range t.spans {
		if s.Name == name {
			mallocs = append(mallocs, float64(s.Mallocs))
			bytes = append(bytes, float64(s.Bytes))
		}
	}
	return
}

func (t *tracer) write(path string) error {
	out, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

const shards = 4 // ingest-mix's -shards, and the sharded probes' shard count

// ledger is the traced pass: it loads the dataset files the server loaded
// and, on a fixed sample of the workload's inputs and a single goroutine,
// times each layer's public entry points from outside; base is the still
// running server, for the wire side of the HTTP overheads. vals receives one
// value per per-layer metric it owns.
func ledger(tr *tracer, base, dataDir, tmp string, sample []query, batches [][]*traj.Trajectory, vals values) error {
	ctx := context.Background()
	g, trajs, err := loadDataset(dataDir)
	if err != nil {
		return err
	}
	// The oracle is chosen once per graph, so the Dijkstra side of the
	// distance comparison needs a graph of its own.
	gDij, _, err := loadDataset(dataDir)
	if err != nil {
		return err
	}
	gDij.SetAccel(roadnet.AccelDijkstra)
	// Build both oracles now, so that no timed call pays for one.
	g.Oracle()
	gDij.Oracle()
	p := core.DefaultParams()
	sp := hist.SearchParams{Phi: p.Phi, SpliceEps: p.SpliceEps, SpliceMinSimple: p.SpliceMinSimple}

	var st *hist.Store
	for i := 0; i < 3; i++ {
		tr.call("hist.NewStore", -1, -1, false, func() { st = hist.NewStore(g, trajs, hist.StoreConfig{}) })
		tr.call("graphalg.BuildCH", -1, -1, false, func() { graphalg.BuildCH(g.VertexGraph()) })
	}
	vals.set("hist.open_ms", median(tr.us("hist.NewStore"))/1e3, 3)
	vals.set("graphalg.ch_build_ms", median(tr.us("graphalg.BuildCH"))/1e3, 3)
	snap := st.Snapshot()
	sst := hist.NewShardedStore(g, trajs, hist.ShardedConfig{Shards: shards, Halo: p.Phi})
	ssnap := sst.Current()

	// eng answers whole queries; pairEng sees each pair for the first time
	// in PairLocalRoutes, so its first call is cold and its second warm.
	eng := core.NewEngine(st, p)
	pairEng := core.NewEngine(st, p)
	var refCounts, rangeHits []float64
	tgiPairs, pairs := 0, 0
	for r, q := range sample {
		root := tr.begin("request", -1, r)
		var res *core.Result
		var ierr error
		tr.call("core.InferRoutesCtx.cold", root, r, false, func() { res, ierr = eng.InferRoutesCtx(ctx, q.traj, p) })
		if ierr != nil {
			return fmt.Errorf("ledger: query %d: %w", r, ierr)
		}
		tr.call("core.KGRI", root, r, false, func() { core.KGRI(g, res.Locals, p.K3) })
		pts := q.traj.Points
		for _, pt := range pts {
			var hits []hist.PointRef
			tr.call("rtree.WithinRadius", root, r, false, func() { hits = snap.WithinRadius(pt.Pt, p.Phi) })
			rangeHits = append(rangeHits, float64(len(hits)))
			tr.call("roadnet.CandidateEdges", root, r, false, func() { g.CandidateEdges(pt.Pt, p.CandEps) })
		}
		for i := 0; i+1 < len(pts); i++ {
			qi, qj := pts[i], pts[i+1]
			var refs []hist.Reference
			tr.call("hist.References", root, r, true, func() { refs = hist.References(snap, qi, qj, sp) })
			refCounts = append(refCounts, float64(len(refs)))
			tr.call("hist.References.sharded", root, r, false, func() { hist.References(ssnap, qi, qj, sp) })
			var stats core.PairStats
			tr.call("core.PairLocalRoutes.cold", root, r, false, func() { _, stats = pairEng.PairLocalRoutes(qi, qj, core.MethodHybrid, p) })
			tr.call("core.PairLocalRoutes.warm", root, r, false, func() { pairEng.PairLocalRoutes(qi, qj, core.MethodHybrid, p) })
			tr.call("core.PairLocalRoutes.tgi", root, r, false, func() { pairEng.PairLocalRoutes(qi, qj, core.MethodTGI, p) })
			tr.call("core.PairLocalRoutes.nni", root, r, false, func() { pairEng.PairLocalRoutes(qi, qj, core.MethodNNI, p) })
			pairs++
			if stats.Method == core.MethodTGI {
				tgiPairs++
			}
			a, okA := g.LocationOf(qi.Pt)
			b, okB := g.LocationOf(qj.Pt)
			if !okA || !okB {
				continue
			}
			tr.call("roadnet.NetworkDistance.ch", root, r, false, func() { g.NetworkDistance(a, b) })
			tr.call("roadnet.NetworkDistance.dijkstra", root, r, false, func() { gDij.NetworkDistance(a, b) })
			src, dst := g.Seg(a.Edge).To, g.Seg(b.Edge).From
			tr.call("graphalg.KShortestPaths", root, r, false, func() { graphalg.KShortestPaths(g.VertexGraph(), src, dst, p.K1) })
		}
		tr.end(root)
	}
	med := func(metric, spanName string) {
		xs := tr.us(spanName)
		vals.set(metric, median(xs), len(xs))
	}
	med("core.infer_cold_us", "core.InferRoutesCtx.cold")
	med("core.kgri_us", "core.KGRI")
	med("rtree.range_us", "rtree.WithinRadius")
	vals.set("rtree.range_hits", mean(rangeHits), len(rangeHits))
	med("roadnet.cand_us", "roadnet.CandidateEdges")
	med("hist.refsearch_us", "hist.References")
	vals.set("hist.refsearch_refs", mean(refCounts), len(refCounts))
	mallocs, _ := tr.mem("hist.References")
	vals.set("hist.refsearch_allocs", median(mallocs), len(mallocs))
	med("hist.sharded_refsearch_us", "hist.References.sharded")
	med("core.pair_cold_us", "core.PairLocalRoutes.cold")
	med("core.pair_warm_us", "core.PairLocalRoutes.warm")
	med("core.tgi_us", "core.PairLocalRoutes.tgi")
	med("core.nni_us", "core.PairLocalRoutes.nni")
	vals.set("core.tgi_share", float64(tgiPairs)/float64(max(pairs, 1)), pairs)
	med("graphalg.dist_ch_us", "roadnet.NetworkDistance.ch")
	med("graphalg.dist_dijkstra_us", "roadnet.NetworkDistance.dijkstra")
	med("graphalg.yen_us", "graphalg.KShortestPaths")

	// From here on the live server is probed too, one request at a time over
	// one connection, next to the same call made in-process: both sides warm,
	// and close in time, so that the paired difference is the wire's cost and
	// not the machine's mood. inTurn rotates which side goes first, so that
	// no side always inherits the warmer CPU cache.
	hc := newClient()
	defer hc.CloseIdleConnections()
	seq := &driver{base: base, w: &world{queries: sample}}
	var wireErr error
	wireSession := func(r int) []float64 {
		ph := &phase{}
		seq.streamSession(hc, r, budget{}, ph)
		if ph.failed > 0 {
			wireErr = fmt.Errorf("ledger: /stream session %d failed", r)
		}
		return ph.lat
	}
	for r, q := range sample {
		if code, _, err := post(hc, base+"/infer", q.body); err != nil || code != http.StatusOK {
			return fmt.Errorf("ledger: /infer query %d: status %d, %v", r, code, err)
		}
		wireSession(r)
	}

	// Warm whole-query cost and the one allocation protocol: further passes
	// over the sample, memo and candidate cache resident.
	gate := core.NewGate(eng, core.GateConfig{})
	var wireInfer []float64
	for r, q := range sample {
		if _, err := eng.InferRoutesCtx(ctx, q.traj, p); err != nil {
			return err
		}
		inTurn(r,
			func() {
				tr.call("core.InferRoutesCtx.warm", -1, r, false, func() { eng.InferRoutesCtx(ctx, q.traj, p) })
			},
			func() { tr.call("core.Gate.Do", -1, r, false, func() { gate.Do(ctx, q.traj, p) }) })
		inTurn(r,
			func() { tr.call("core.Gate.Do.beside-wire", -1, r, false, func() { gate.Do(ctx, q.traj, p) }) },
			func() {
				t0 := time.Now()
				if code, _, err := post(hc, base+"/infer", q.body); err != nil || code != http.StatusOK {
					wireErr = fmt.Errorf("ledger: /infer query %d: status %d, %v", r, code, err)
				}
				wireInfer = append(wireInfer, float64(time.Since(t0).Nanoseconds())/1e3)
			})
		tr.call("core.InferRoutesCtx.allocs", -1, r, true, func() { eng.InferRoutesCtx(ctx, q.traj, p) })
	}
	warm, gated := tr.us("core.InferRoutesCtx.warm"), tr.us("core.Gate.Do")
	vals.set("core.infer_warm_us", median(warm), len(warm))
	mallocs, bytes := tr.mem("core.InferRoutesCtx.allocs")
	vals.set("core.infer_allocs", median(mallocs), len(mallocs))
	vals.set("core.infer_bytes", median(bytes), len(bytes))
	vals.set("core.gate_overhead_us", medianDiff(gated, warm), len(warm))
	vals.set("http.infer_overhead_us", medianDiff(wireInfer, tr.us("core.Gate.Do.beside-wire")), len(wireInfer))

	// The cost of recording a span, relative to the cheapest whole request
	// the ledger times: the warm call again, bare and wrapped in a span.
	var bare []float64
	scratch := newTracer()
	for r, q := range sample {
		inTurn(r,
			func() {
				t0 := time.Now()
				eng.InferRoutesCtx(ctx, q.traj, p)
				bare = append(bare, float64(time.Since(t0).Nanoseconds())/1e3)
			},
			func() { scratch.call("wrapped", -1, r, false, func() { eng.InferRoutesCtx(ctx, q.traj, p) }) })
	}
	vals.set("bench.trace_overhead_pct", 100*medianDiff(scratch.us("wrapped"), bare)/median(bare), len(bare))

	// Sessions: cold on an engine of their own, the way a vehicle's points
	// are always new to the server; then warm, beside the same session on
	// the wire.
	sessEng := core.NewEngine(st, p)
	session := func(r int, pass string) error {
		s := sessEng.NewSession(p, core.SessionConfig{})
		for _, pt := range sample[r].traj.Points {
			var perr error
			tr.call("core.Session.Push"+pass, -1, r, pass == "", func() { _, perr = s.Push(ctx, pt) })
			if perr != nil {
				return fmt.Errorf("ledger: session %d: %w", r, perr)
			}
		}
		tr.call("core.Session.Finalize"+pass, -1, r, false, func() { s.Finalize() })
		return nil
	}
	var wirePush []float64
	for r := range sample {
		if err := session(r, ""); err != nil {
			return err
		}
	}
	for r := range sample {
		var serr error
		inTurn(r,
			func() { serr = session(r, ".warm") },
			func() {
				for _, l := range wireSession(r) {
					wirePush = append(wirePush, l*1e3)
				}
			})
		if serr != nil {
			return serr
		}
	}
	if wireErr != nil {
		return wireErr
	}
	med("core.session_push_us", "core.Session.Push")
	med("core.session_finalize_us", "core.Session.Finalize")
	mallocs, _ = tr.mem("core.Session.Push")
	vals.set("core.session_push_allocs", median(mallocs), len(mallocs))
	pushWarm := tr.us("core.Session.Push.warm")
	vals.set("http.stream_overhead_us", medianDiff(wirePush, pushWarm), len(pushWarm))

	return ledgerIngest(tr, g, trajs, tmp, batches, vals)
}

// ledgerIngest times the write path: the same batches into an in-memory
// store and into a durable sharded store (the difference is what the WAL
// and its fsync cost), then compaction, the space used, and recovery.
func ledgerIngest(tr *tracer, g *roadnet.Graph, trajs []*traj.Trajectory, tmp string, batches [][]*traj.Trajectory, vals values) error {
	mem := hist.NewStore(g, trajs, hist.StoreConfig{})
	dir := filepath.Join(tmp, "ledger-store")
	cfg := hist.ShardedConfig{Shards: shards, Halo: core.DefaultParams().Phi}
	dur, _, err := hist.OpenShardedStore(dir, g, trajs, cfg)
	if err != nil {
		return err
	}
	trips := 0
	for b, batch := range batches {
		tr.call("hist.Ingest", -1, b, false, func() { mem.Ingest(batch...) })
		var stats hist.IngestStats
		tr.call("hist.Ingest.durable", -1, b, false, func() { stats = dur.Ingest(batch...) })
		if stats.Durability != hist.DurabilitySynced {
			return fmt.Errorf("ledger: durable ingest reported %q", stats.Durability)
		}
		trips += stats.Trips
	}
	mem.Wait()
	inMem, durable := tr.us("hist.Ingest"), tr.us("hist.Ingest.durable")
	vals.set("hist.ingest_us", median(inMem), len(inMem))
	vals.set("hist.ingest_durable_us", median(durable), len(durable))
	vals.set("hist.wal_tax_us", median(durable)-median(inMem), len(durable))

	dur.Wait()
	tr.call("hist.Compact", -1, -1, false, func() { dur.Compact() })
	vals.set("hist.compact_ms", median(tr.us("hist.Compact"))/1e3, 1)
	var onDisk int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			onDisk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	vals.set("hist.bytes_per_trip", float64(onDisk)/float64(max(trips, 1)), trips)

	dur.CloseAbrupt()
	var rerr error
	tr.call("hist.OpenShardedStore", -1, -1, false, func() { dur, _, rerr = hist.OpenShardedStore(dir, g, trajs, cfg) })
	if rerr != nil {
		return fmt.Errorf("ledger: reopen: %w", rerr)
	}
	vals.set("hist.recovery_ms", median(tr.us("hist.OpenShardedStore"))/1e3, 1)
	return dur.Close()
}

// inTurn runs the calls in an order rotated by r.
func inTurn(r int, calls ...func()) {
	for i := range calls {
		calls[(r+i)%len(calls)]()
	}
}

// medianDiff is the median of the paired differences a[i]-b[i].
func medianDiff(a, b []float64) float64 {
	n := min(len(a), len(b))
	d := make([]float64, n)
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return median(d)
}
