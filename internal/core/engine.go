package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	runtimemetrics "runtime/metrics"
	"strconv"
	"time"

	"repro/internal/graphalg"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// Engine is the immutable, concurrency-safe inference engine: the road
// network, the indexed archive, a frozen copy of the default parameters,
// and the shared read-through caches. Every inference entry point takes its
// Params by value, so a single Engine serves any number of concurrent
// queries — with different parameter sets — without synchronization on the
// caller's side.
//
// Concurrency model (see DESIGN.md "Engine architecture & concurrency
// model"): all fields are set at construction and never reassigned; the
// graph is immutable after its own construction; the archive source yields
// immutable epoch-numbered snapshots (a frozen *hist.Archive is its own
// constant source, a live *hist.Store publishes a new one per ingest), and
// every inference call pins exactly one snapshot for its whole lifetime;
// the reference-search memo and the match tables are internally locked
// read-through memos whose hits and misses return byte-identical results,
// so caching never changes an outcome.
type Engine struct {
	g        *roadnet.Graph
	src      hist.Source
	defaults Params

	refs  *hist.SearchCache // reference-search memo (per epoch × query pair)
	match *matchTables      // archive map-matching (per trajectory × ε)

	met *metrics // nil when built without a registry: zero-cost no-op

	// noPool disables the scratch-arena pool: every worker gets a fresh
	// arena instead of a recycled one. Test hook for the pooled-vs-unpooled
	// equivalence and leak checks — pooling must never change an output.
	noPool bool
	// pairWorkers bounds the worker pool of InferRoutes' per-pair stage;
	// < 1 means runtime.GOMAXPROCS(0). Test hook for the worker-count
	// equivalence checks: pairs are independent and joined in order, so
	// every setting yields the same result.
	pairWorkers int
}

// NewEngine builds an engine over an archive source — a frozen
// *hist.Archive or a live *hist.Store. The defaults are frozen into the
// engine for callers that want a baseline via Defaults; they never change
// after construction. The engine is uninstrumented — see
// NewEngineWithRegistry for the observed variant.
func NewEngine(src hist.Source, defaults Params) *Engine {
	return NewEngineWithRegistry(src, defaults, nil)
}

// NewEngineWithRegistry is NewEngine with pipeline observability: every
// inference records per-stage latency histograms and counters (see package
// obs for the stage names) into reg. A nil reg yields an uninstrumented
// engine whose hot path skips all clock reads.
func NewEngineWithRegistry(src hist.Source, defaults Params, reg *obs.Registry) *Engine {
	g := src.Current().Graph()
	return &Engine{
		g:        g,
		src:      src,
		defaults: defaults,
		refs:     hist.NewSearchCache(0),
		match:    &matchTables{g: g, m: make(map[matchKey]*trajMatch)},
		met:      newMetrics(reg),
	}
}

// Graph returns the road network the engine infers over.
func (e *Engine) Graph() *roadnet.Graph { return e.g }

// Source returns the archive source the engine reads from. With a live
// Store its Current advances between calls; inference internals never call
// it twice — they pin one generation per invocation.
func (e *Engine) Source() hist.Source { return e.src }

// Defaults returns a copy of the engine's frozen default parameters.
func (e *Engine) Defaults() Params { return e.defaults }

// Registry returns the engine's metrics registry, nil when the engine was
// built uninstrumented.
func (e *Engine) Registry() *obs.Registry {
	if e.met == nil {
		return nil
	}
	return e.met.reg
}

// Metrics returns the unified observability snapshot: the per-stage latency
// histograms and counters of the registry (empty for an uninstrumented
// engine) with the cache layers' hit/miss/reset/size gauges folded in.
func (e *Engine) Metrics() obs.Snapshot {
	var s obs.Snapshot
	if e.met != nil {
		s = e.met.reg.Snapshot()
	} else {
		s = obs.Snapshot{Counters: map[string]uint64{}, Stages: map[string]obs.HistStats{}}
	}
	rh, rm := e.refs.Stats()
	s.Counters["cache.refsearch.hits"] = rh
	s.Counters["cache.refsearch.misses"] = rm
	s.Counters["cache.refsearch.declined"] = e.refs.Declined()
	s.Counters["cache.refsearch.resets"] = e.refs.Resets()
	s.Counters["cache.refsearch.invalidations"] = e.refs.Invalidations()
	s.Counters["cache.refsearch.entries"] = uint64(e.refs.Len())
	s.Counters["cache.refsearch.bytes"] = uint64(e.refs.Bytes())
	// Archive gauges: which generation queries currently pin and how much
	// history backs them; a live Store adds its segment/compaction state.
	snap := e.src.Current()
	s.Counters["archive.epoch"] = snap.Epoch()
	s.Counters["archive.trajs"] = uint64(snap.NumTrajs())
	s.Counters["archive.points"] = uint64(snap.NumPoints())
	s.Counters["archive.segments"] = uint64(snap.Segments())
	if st, ok := e.src.(*hist.Store); ok {
		stats := st.Stats()
		s.Counters["store.compactions"] = stats.Compactions
		s.Counters["store.shards"] = uint64(len(stats.Shards))
		foldDiskGauges(s.Counters, stats)
		// Per-shard gauges, namespaced like the per-shard ingest counters,
		// so /metrics exposes skew (trip/point replication per shard) and
		// each shard's compaction progress.
		for i, ss := range stats.Shards {
			prefix := obs.ShardPrefix + strconv.Itoa(i) + "."
			s.Counters[prefix+"epoch"] = ss.Epoch
			s.Counters[prefix+"trajs"] = uint64(ss.Trajs)
			s.Counters[prefix+"points"] = uint64(ss.Points)
			s.Counters[prefix+"segments"] = uint64(ss.Segments)
			s.Counters[prefix+"compactions"] = ss.Compactions
		}
	}
	// Archive points are map-matched once per trajectory into the
	// cache.trajmatch.* tables (builds exceeds tables only when first
	// touches raced).
	tables, points, builds := e.match.stats()
	s.Counters["cache.trajmatch.tables"] = tables
	s.Counters["cache.trajmatch.points"] = points
	s.Counters["cache.trajmatch.builds"] = builds
	// Distance-oracle gauges: which accelerator the network runs and, once
	// a contraction hierarchy has been built (OracleStats never forces the
	// lazy build), its preprocessing cost and shortcut counts.
	if e.g.Accel() == roadnet.AccelCH {
		s.Counters["oracle.mode.ch"] = 1
	} else {
		s.Counters["oracle.mode.dijkstra"] = 1
	}
	if st, ok := e.g.OracleStats(); ok {
		s.Counters["oracle.ch.vertices"] = uint64(st.Vertices)
		s.Counters["oracle.ch.original_arcs"] = uint64(st.OriginalArcs)
		s.Counters["oracle.ch.shortcuts"] = uint64(st.Shortcuts)
		s.Counters["oracle.ch.up_arcs"] = uint64(st.UpArcs)
		s.Counters["oracle.ch.down_arcs"] = uint64(st.DownArcs)
		s.Counters["oracle.ch.preprocess_us"] = uint64(st.Build.Microseconds())
	}
	runtimeGauges(s.Counters)
	return s
}

// runtimeGauges folds process-level memory and GC state into the snapshot —
// the observable face of the allocation-free hot path (DESIGN.md "Memory
// discipline"). It samples runtime/metrics, which reads cheap internal
// counters, rather than runtime.ReadMemStats, which stops the world.
func runtimeGauges(counters map[string]uint64) {
	samples := []runtimemetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/pauses:seconds"},
	}
	runtimemetrics.Read(samples)
	if samples[0].Value.Kind() == runtimemetrics.KindUint64 {
		counters["runtime.heap.objects_bytes"] = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == runtimemetrics.KindUint64 {
		counters["runtime.gc.cycles"] = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == runtimemetrics.KindFloat64Histogram {
		if h := samples[2].Value.Float64Histogram(); h != nil {
			counters["runtime.gc.pause_p95_ns"] = uint64(histQuantile(h, 95) * 1e9)
		}
	}
}

// histQuantile reads the pct-th percentile out of a runtime/metrics
// histogram: the upper bound of the bucket where the cumulative count first
// reaches ceil(total·pct/100). Boundary buckets with infinite bounds report
// their finite side.
func histQuantile(h *runtimemetrics.Float64Histogram, pct int) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	thresh := (total*uint64(pct) + 99) / 100
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= thresh {
			ub := h.Buckets[i+1]
			if math.IsInf(ub, 1) {
				return h.Buckets[i]
			}
			return ub
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// foldDiskGauges adds a durable store's on-disk state to the snapshot:
// WAL bytes plus the active fsync policy (in-memory stores report neither,
// so the gauges double as a durability flag).
func foldDiskGauges(counters map[string]uint64, stats hist.StoreStats) {
	if stats.WALBytes > 0 || stats.Durability != "" {
		counters["store.disk.wal_bytes"] = uint64(stats.WALBytes)
	}
	switch stats.Durability {
	case "always":
		counters["store.disk.sync.always"] = 1
	case "interval":
		counters["store.disk.sync.interval"] = 1
	case "off":
		counters["store.disk.sync.off"] = 1
	}
}

// metrics holds the engine's pre-resolved instruments so the hot path
// never takes the registry lock. nil *metrics (uninstrumented engine)
// short-circuits all recording.
type metrics struct {
	reg *obs.Registry

	query, refSearch, candSearch, culling, localTGI, localNNI, kgri *obs.Histogram

	queries, fallbacks, cancelled, degraded *obs.Counter
	// nniTraces/nniRoutes: traces NNI enumerated against the distinct routes
	// they converted to — how much of the conversion is redundant.
	nniTraces, nniRoutes *obs.Counter

	// deadlines maps a stage name to its deadline-hit counter
	// (obs.DeadlineCounterPrefix + stage), pre-resolved like the histograms.
	deadlines map[string]*obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	deadlines := make(map[string]*obs.Counter)
	for _, stage := range []string{
		obs.StageQuery, obs.StageReferenceSearch, obs.StageCandidateSearch,
		obs.StageLocalTGI, obs.StageLocalNNI, obs.StageKGRI,
	} {
		deadlines[stage] = reg.Counter(obs.DeadlineCounterPrefix + stage)
	}
	return &metrics{
		reg:        reg,
		query:      reg.Histogram(obs.StageQuery),
		refSearch:  reg.Histogram(obs.StageReferenceSearch),
		candSearch: reg.Histogram(obs.StageCandidateSearch),
		culling:    reg.Histogram(obs.StageConnectionCulling),
		localTGI:   reg.Histogram(obs.StageLocalTGI),
		localNNI:   reg.Histogram(obs.StageLocalNNI),
		kgri:       reg.Histogram(obs.StageKGRI),
		queries:    reg.Counter("queries"),
		fallbacks:  reg.Counter("fallback.local"),
		nniTraces:  reg.Counter("local.nni.traces"),
		nniRoutes:  reg.Counter("local.nni.routes"),
		cancelled:  reg.Counter(obs.CounterQueryCancelled),
		degraded:   reg.Counter(obs.CounterQueryDegraded),
		deadlines:  deadlines,
	}
}

// deadlineHit records that budget expiry was first detected in stage.
func (m *metrics) deadlineHit(stage string) {
	if c, ok := m.deadlines[stage]; ok {
		c.Inc()
		return
	}
	m.reg.Counter(obs.DeadlineCounterPrefix + stage).Inc()
}

// hist maps a stage name to its pre-resolved histogram.
func (m *metrics) hist(stage string) *obs.Histogram {
	switch stage {
	case obs.StageQuery:
		return m.query
	case obs.StageReferenceSearch:
		return m.refSearch
	case obs.StageCandidateSearch:
		return m.candSearch
	case obs.StageConnectionCulling:
		return m.culling
	case obs.StageLocalTGI:
		return m.localTGI
	case obs.StageLocalNNI:
		return m.localNNI
	case obs.StageKGRI:
		return m.kgri
	}
	return m.reg.Histogram(stage)
}

// exec is one inference invocation: the shared immutable engine plus this
// call's private parameter snapshot and observability sinks. All pipeline
// internals hang off exec, which makes "no shared mutable state" structural
// — there is simply no field a concurrent call could race on. (The metrics
// and trace sinks are internally atomic/locked appenders.)
type exec struct {
	eng   *Engine
	p     Params
	met   *metrics   // engine's instruments; nil = don't record
	trace *obs.Trace // per-query trace; nil = don't trace

	// snap is the archive generation pinned for this invocation: captured
	// once at entry, consulted everywhere below, so one inference sees one
	// consistent epoch even while a live Store keeps publishing new ones.
	// A snapshot pins every shard's segment stack at once.
	snap hist.View

	// ctx/done carry this invocation's cancellation signal. done is
	// ctx.Done(), captured once: context.Background() yields nil, so the
	// uncancellable path's checkpoints are a nil comparison — no channel
	// polls, no clock reads. ctx is only consulted after done reports
	// closed, to distinguish deadline expiry (degrade) from outright
	// cancellation (abort).
	ctx  context.Context
	done <-chan struct{}

	// sc is the scratch arena of the worker this exec copy belongs to, set
	// by the entry points right after newExec. exec is passed by value, so
	// each worker's binding is private.
	sc *pairScratch
	// near, when set, replaces the near set sc's searcher carries between
	// consecutive pairs: a Session's, which outlives the arena a push borrows.
	near *hist.NearSet
}

// newExec binds one invocation to its context, the archive generation it
// pinned, the engine's instruments and the trace ctx carries, if any
// (obs.WithTrace) — read here once, not per stage.
func (e *Engine) newExec(ctx context.Context, p Params, snap hist.View) exec {
	return exec{eng: e, p: p, met: e.met, trace: obs.TraceFrom(ctx), snap: snap, ctx: ctx, done: ctx.Done()}
}

// expired reports whether this invocation's context is done. This is the
// checkpoint primitive of the whole pipeline; with no context (done == nil)
// it is a nil check and nothing more.
func (x exec) expired() bool { return graphalg.Stopped(x.done) }

// abortErr returns a non-nil error when the invocation must abort: the
// context was cancelled outright (context.Canceled or a custom cause).
// Deadline expiry returns nil — it flows through graceful degradation
// instead of an error. The query.cancelled counter increments here, at the
// single point where an abort is decided.
func (x exec) abortErr() error {
	if !x.expired() {
		return nil
	}
	if err := x.ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		if x.met != nil {
			x.met.cancelled.Inc()
		}
		return err
	}
	return nil
}

// deadlineExpired reports whether the per-query budget lapsed, attributing
// first detection to stage via its deadline.<stage> counter. Outright
// cancellation reports false — abortErr handles it.
func (x exec) deadlineExpired(stage string) bool {
	if !x.expired() || !errors.Is(x.ctx.Err(), context.DeadlineExceeded) {
		return false
	}
	if x.met != nil {
		x.met.deadlineHit(stage)
	}
	return true
}

// stageStart returns the wall clock when this invocation is observed, and
// the zero time otherwise — stageDone treats the zero time as "skip", so
// the uninstrumented hot path performs no clock reads at all.
func (x exec) stageStart() time.Time {
	if x.met == nil && x.trace == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageDone closes a stage opened by stageStart: it records the elapsed
// time into the stage's histogram and, when tracing, appends a span tagged
// with the pair index (-1 for whole-query stages) and the item count n.
func (x exec) stageDone(stage string, pair int, t0 time.Time, n int) {
	if t0.IsZero() {
		return
	}
	d := time.Since(t0)
	if x.met != nil {
		x.met.hist(stage).Observe(d)
	}
	x.trace.Add(stage, pair, t0, d, n)
}

// pairWorkers resolves the per-pair worker bound for one offline query:
// the engine's pairWorkers, defaulting to runtime.GOMAXPROCS(0) when < 1,
// and never more than the number of pairs.
func (x exec) pairWorkers(pairs int) int {
	w := x.eng.pairWorkers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > pairs {
		w = pairs
	}
	return w
}
