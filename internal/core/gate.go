package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/traj"
)

// ErrQueueFull reports that the gate's admission queue was at capacity and
// the request was rejected without queuing (HTTP 429 territory: the client
// should back off and retry).
var ErrQueueFull = errors.New("core: admission queue full")

// ErrShedExpired reports that a request was shed because its deadline
// expired — or, per the gate's running latency estimate, would expire —
// before inference could start (HTTP 503 territory: the server is saturated
// and spending a worker on this request would produce a late answer nobody
// is waiting for).
var ErrShedExpired = errors.New("core: request shed: deadline expires before inference can start")

// GateConfig tunes a Gate.
type GateConfig struct {
	// MaxInflight bounds concurrent inferences admitted past the gate.
	// Values < 1 default to runtime.GOMAXPROCS(0) — inference is CPU-bound,
	// so more in-flight work than cores only grows every request's latency.
	MaxInflight int
	// QueueDepth bounds requests waiting for a worker slot beyond
	// MaxInflight; an arrival finding the queue full is rejected with
	// ErrQueueFull. Values < 0 default to 4×MaxInflight. 0 is valid:
	// admit-or-reject with no waiting room.
	QueueDepth int
}

// Gate is the serving-path admission controller in front of an Engine: a
// bounded worker queue (MaxInflight concurrent inferences, QueueDepth
// waiters, reject beyond) and deadline-aware load shedding (a request whose
// budget will lapse before a worker frees up is refused at dequeue instead
// of burning the worker on a doomed query).
//
// A Gate is safe for concurrent use and has no background state — dropping
// it is enough. It records its traffic into the engine's registry under the
// obs server.* names; on an uninstrumented engine the instruments are
// nil-safe no-ops.
type Gate struct {
	eng   *Engine
	max   int
	depth int

	slots    chan struct{} // buffered MaxInflight: holding a token = running
	admitted atomic.Int64  // waiting + running, bounded by max+depth

	// queryHist is the engine's query-stage latency histogram: the shed
	// decision's estimate of how long an inference will take once started.
	queryHist                    *obs.Histogram
	inflight, queueWait          *obs.Histogram
	shed, shedQueue, shedExpired *obs.Counter

	// slotHeld is a test seam (nil in production): it runs while a worker
	// slot is held, before the shed check, so the admission interleavings
	// can be pinned deterministically — under load the windows are too
	// narrow to provoke on a single-CPU machine.
	slotHeld func()
}

// NewGate builds a gate over eng with cfg's bounds.
func NewGate(eng *Engine, cfg GateConfig) *Gate {
	if cfg.MaxInflight < 1 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 4 * cfg.MaxInflight
	}
	reg := eng.Registry()
	return &Gate{
		eng:         eng,
		max:         cfg.MaxInflight,
		depth:       cfg.QueueDepth,
		slots:       make(chan struct{}, cfg.MaxInflight),
		queryHist:   reg.Histogram(obs.StageQuery),
		inflight:    reg.Histogram(obs.HistServerInflight),
		queueWait:   reg.Histogram(obs.HistServerQueueWait),
		shed:        reg.Counter(obs.CounterServerShed),
		shedQueue:   reg.Counter(obs.CounterServerShedQueue),
		shedExpired: reg.Counter(obs.CounterServerShedExpired),
	}
}

// Do serves one inference request through the gate: admission, queueing,
// shed-before-expiry, then Engine.InferRoutesCtx.
//
// Deadline semantics: p.Deadline > 0 is applied to ctx here, at arrival —
// not at inference start — so time spent waiting in the queue consumes the
// request's budget. The Params copy handed to the engine has Deadline zeroed
// (the budget already lives in the context); mid-inference expiry therefore
// still degrades gracefully exactly as in InferRoutesCtx. A deadline the
// caller's ctx carried on arrival is the caller's own budget: when it lapses
// before inference starts, Do returns context.DeadlineExceeded (the caller
// timed out) rather than ErrShedExpired (the server refused).
func (g *Gate) Do(ctx context.Context, q *traj.Trajectory, p Params) (*Result, error) {
	parent := ctx
	if p.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Deadline)
		defer cancel()
		p.Deadline = 0
	}
	// Admission: one atomic add bounds waiting + running. Rejection is the
	// cheap path — no locks, no allocation — so a flood of arrivals beyond
	// capacity costs the server almost nothing per 429.
	if g.admitted.Add(1) > int64(g.max+g.depth) {
		g.admitted.Add(-1)
		g.shed.Inc()
		g.shedQueue.Inc()
		return nil, ErrQueueFull
	}
	defer g.admitted.Add(-1)
	t0 := time.Now()
	select {
	case g.slots <- struct{}{}:
	case <-ctx.Done():
		// The request died in the queue: its own deadline or cancellation
		// fired before a worker freed up.
		g.queueWait.ObserveSince(t0)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			if errors.Is(parent.Err(), context.DeadlineExceeded) {
				return nil, context.DeadlineExceeded
			}
			g.shed.Inc()
			g.shedExpired.Inc()
			return nil, ErrShedExpired
		}
		return nil, context.Cause(ctx)
	}
	defer func() { <-g.slots }()
	g.queueWait.ObserveSince(t0)
	if g.slotHeld != nil {
		g.slotHeld()
	}
	// Shed before expiry (not after): if the remaining budget is at or below
	// what an inference typically takes, the answer would arrive dead — give
	// the worker to a request that can still make its deadline. The estimate
	// is the query stage's p50 (a bucketed upper bound, so shedding is
	// slightly conservative); with no history yet the estimate is zero and
	// only already-expired requests are shed.
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= g.estimate() {
		if errors.Is(parent.Err(), context.DeadlineExceeded) {
			return nil, context.DeadlineExceeded
		}
		g.shed.Inc()
		g.shedExpired.Inc()
		return nil, ErrShedExpired
	}
	g.inflight.Observe(time.Duration(len(g.slots)) * time.Microsecond)
	return g.eng.InferRoutesCtx(ctx, q, p)
}

// estimate returns the gate's current guess at how long one inference takes
// once started: the engine's query-stage p50, zero with no history.
func (g *Gate) estimate() time.Duration {
	if g.queryHist.Count() == 0 {
		return 0
	}
	return g.queryHist.Quantile(0.5)
}
