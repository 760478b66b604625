package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// ErrEmptyQuery is returned for queries with fewer than two points.
var ErrEmptyQuery = errors.New("core: query needs at least two points")

// ErrNoRoutes is returned when no global route can be assembled.
var ErrNoRoutes = errors.New("core: no routes inferred")

// PairStats reports what happened for one consecutive query pair — the
// experiment harness uses it to relate accuracy and running time to the
// reference density (Figure 10) and method choice.
type PairStats struct {
	Refs     int     // reference trajectories found
	Spliced  int     // of which spliced (Definition 7)
	Points   int     // reference points |P_i|
	Density  float64 // points per km² over MBR(P_i)
	Method   Method  // local algorithm actually used
	Routes   int     // local routes produced
	UsedFall bool    // fallback shortest path used
	// Degraded marks a pair whose inference was cut short by the query
	// deadline and replaced with the shortest-path fallback.
	Degraded bool
}

// Result is the full output of InferRoutes.
type Result struct {
	Routes []GlobalRoute // top-K global routes, best first
	Pairs  []PairStats
	Locals [][]LocalRoute // per-pair local route sets (after capping)
	// Degraded reports that the query's deadline (Params.Deadline or the
	// caller context's) expired mid-inference and the routes are a
	// best-effort answer: expired pairs carry shortest-path fallbacks (see
	// Pairs[i].Degraded) and the K-GRI join may have finished greedily.
	// Every returned route is still a well-formed, connected route.
	Degraded bool
}

// pairOutcome is one pair's share of a Result, produced independently of
// every other pair.
type pairOutcome struct {
	stats  PairStats
	locals []LocalRoute
}

// InferRoutes is InferRoutesCtx without a caller context: nothing can cancel
// it, and only Params.Deadline bounds it.
func (e *Engine) InferRoutes(q *traj.Trajectory, p Params) (*Result, error) {
	return e.InferRoutesCtx(context.Background(), q, p)
}

// InferRoutesCtx runs the complete HRIS pipeline on a low-sampling-rate
// query trajectory and returns the top-K global routes (§II-B.2). It is the
// offline schedule of the one pipeline a streaming Session runs point by
// point: the per-pair stage fans out, the outcomes are committed to a
// session in pair order, and the session finishes — so Session.Finalize and
// this function cannot drift apart.
//
// A query repeated at one epoch and Params (Deadline aside) may be served
// from the engine's query memo (see queryMemo): a shallow copy of a
// complete Result, whose slices are shared and read-only.
//
// Outright cancellation (context.Canceled, or any custom cause) aborts
// promptly with the context's error; deadline expiry — whether from ctx or
// from Params.Deadline — instead degrades gracefully and returns a
// best-effort Result with Degraded set. See DESIGN.md "Cancellation &
// deadlines". A trace carried by ctx (obs.WithTrace) receives one span per
// pipeline-stage occurrence, on instrumented and uninstrumented engines
// alike; a memo hit records the query span alone.
func (e *Engine) InferRoutesCtx(ctx context.Context, q *traj.Trajectory, p Params) (*Result, error) {
	if q.Len() < 2 {
		return nil, ErrEmptyQuery
	}
	if p.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Deadline)
		defer cancel()
	}
	// One snapshot keys the memo and feeds the session, so an answer is
	// never memoized under an epoch it was not computed on.
	snap := e.src.Current()
	x := e.newExec(ctx, p, snap)
	// An already-cancelled context aborts before any work. The check runs
	// before the queries counter so it stays equal to the query histogram's
	// sample count (only started queries are counted by either).
	if err := x.abortErr(); err != nil {
		return nil, err
	}
	if x.met != nil {
		x.met.queries.Inc()
	}
	t0 := x.stageStart()
	k := newQueryKey(snap.Epoch(), p, q.Points)
	res, ok := e.memo.get(&k)
	var err error
	if !ok {
		res, err = x.inferRoutes(e.newSession(p, SessionConfig{}, snap), q)
		if err == nil && !res.Degraded && !x.expired() {
			e.memo.put(&k, res)
		}
	}
	x.stageDone(obs.StageQuery, -1, t0, numRoutes(res))
	return res, err
}

// inferRoutes drives the session s through the whole query q.
//
// The per-pair stage — reference search, pair context assembly, local
// inference — is embarrassingly parallel (§III treats pairs independently
// until K-GRI joins them), so it fans out over a bounded worker pool of
// GOMAXPROCS goroutines. Outcomes are committed in pair order and every
// pair's computation is deterministic, so the output is identical for any
// worker count, including 1.
func (x exec) inferRoutes(s *Session, q *traj.Trajectory) (*Result, error) {
	e, n := x.eng, q.Len()-1
	outs := make([]pairOutcome, n)
	// Each worker checks one scratch arena out of the pool and reuses it
	// across a contiguous run of pairs; exec is copied by value, so the arena
	// binding is private to the worker. Contiguous, because consecutive pairs
	// share a query point whose near set the arena's searcher carries over: c
	// pairs cost c+1 range walks. Workers come in twos, each two eating one
	// region of the query from both ends until they meet, so uneven pairs
	// split evenly. What a pair publishes into outs is fresh.
	workers := x.pairWorkers(n)
	regions := (workers + 1) / 2
	claims := make([]atomic.Int32, regions)
	run := func(w int) {
		xw := x
		xw.sc = e.getScratch()
		defer e.putScratch(xw.sc)
		lo, hi := w/2*n/regions, (w/2+1)*n/regions
		i, step := lo, 1
		if w%2 == 1 {
			i, step = hi-1, -1
		}
		for ; claims[w/2].Add(1) <= int32(hi-lo); i += step {
			outs[i] = xw.solvePair(i, q.Points[i], q.Points[i+1])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() { defer wg.Done(); run(w) }()
	}
	run(0) // on this goroutine: the serial path is the same code
	wg.Wait()
	// Outright cancellation aborts with the context error at the join,
	// before the truncated pair outcomes can be mistaken for answers.
	if err := x.abortErr(); err != nil {
		return nil, err
	}
	t0 := x.stageStart()
	res, err := x.fold(s, q, outs)
	x.stageDone(obs.StageKGRI, -1, t0, numRoutes(res))
	return res, err
}

// fold commits the pair outcomes to the session in pair order and finishes
// it: the K-GRI join, run on the offline schedule. The session's result is
// sized up front — the one thing an offline query knows that a stream does
// not.
func (x exec) fold(s *Session, q *traj.Trajectory, outs []pairOutcome) (*Result, error) {
	s.res.Pairs = make([]PairStats, 0, len(outs))
	s.res.Locals = make([][]LocalRoute, 0, len(outs))
	for i, out := range outs {
		if err := s.commit(i, q.Points[i], q.Points[i+1], out, x.done); err != nil {
			return nil, err
		}
	}
	if err := x.abortErr(); err != nil {
		return nil, err
	}
	if s.stall > 0 && x.met != nil {
		x.met.deadlineHit(obs.StageKGRI)
	}
	return s.finish()
}

// numRoutes is the item count the whole-query stages report: the routes
// returned, zero for a failed query.
func numRoutes(res *Result) int {
	if res == nil {
		return 0
	}
	return len(res.Routes)
}

// pairStage is the one per-pair stage for ⟨q_i, q_{i+1}⟩: reference search,
// optional temporal filtering, context assembly and local route inference,
// with the pair's statistics. pair is the pair index within the query,
// tagged onto the stage timings.
//
// Each stage boundary checks whether the invocation's context is done; the
// first boundary to notice it returns that stage's name in stopped (with the
// statistics gathered so far and no routes — a route set truncated by a
// checkpoint depends on where the checkpoint fired). stopped == "" means the
// stage ran to completion; an empty route set is then a genuine "no
// reference-supported route".
func (x exec) pairStage(pair int, qi, qj traj.GPSPoint) (locals []LocalRoute, st PairStats, stopped string) {
	st.Method = x.p.Method
	if x.expired() {
		return nil, st, obs.StageReferenceSearch
	}
	t0 := x.stageStart()
	refs := x.sc.search.Search(x.snap, qi, qj, hist.SearchParams{
		Phi:             x.p.Phi,
		SpliceEps:       x.p.SpliceEps,
		SpliceMinSimple: x.p.SpliceMinSimple,
	}, x.near, x.done)
	if x.p.TemporalWeighting {
		refs = filterByTimeOfDay(x.snap, refs, qi.T, x.p.TimeWindow)
	}
	x.stageDone(obs.StageReferenceSearch, pair, t0, len(refs))
	st.Refs = len(refs)
	for _, r := range refs {
		if r.Spliced {
			st.Spliced++
		}
	}
	if x.expired() {
		return nil, st, obs.StageCandidateSearch
	}
	t0 = x.stageStart()
	pctx := x.buildPairContext(pair, qi, qj, refs)
	x.stageDone(obs.StageCandidateSearch, pair, t0, pctx.npoints)
	t0 = x.stageStart()
	locals, st.Method = x.inferLocal(pctx)
	stage := localStage(st.Method)
	x.stageDone(stage, pair, t0, len(locals))
	st.Points, st.Density, st.Routes = pctx.npoints, pctx.density(), len(locals)
	if x.expired() {
		return nil, st, stage
	}
	return locals, st, ""
}

// solvePair is pairStage plus what a whole query needs around it: deadline
// degradation and the shortest-path fallback.
//
// A pair stopped by the query deadline records one deadline.<stage> hit and
// is finished cheaply — one shortest path between the query points, flagged
// Degraded. That fallback runs without the context on purpose: it is the
// bounded "finish the current pair" step of graceful degradation and must
// not itself be cut short. A pair stopped by outright cancellation returns
// an empty outcome — the join in inferRoutes discards it and aborts the
// whole query with the context error.
func (x exec) solvePair(pair int, qi, qj traj.GPSPoint) pairOutcome {
	locals, st, stopped := x.pairStage(pair, qi, qj)
	if stopped != "" {
		if !x.deadlineExpired(stopped) {
			return pairOutcome{}
		}
		st.Degraded = true
	}
	if len(locals) == 0 {
		locals = x.fallbackLocal(qi, qj)
		st.UsedFall, st.Routes = true, len(locals)
		if x.met != nil {
			x.met.fallbacks.Inc()
		}
	}
	return pairOutcome{stats: st, locals: locals}
}

// localStage maps the local inference method actually used to its stage.
func localStage(m Method) string {
	if m == MethodNNI {
		return obs.StageLocalNNI
	}
	return obs.StageLocalTGI
}

// trimRoute drops leading segments the query never reached and trailing
// segments past its final point: local routes start and end on candidate
// edges whose far ends can overhang the query's true extent.
func trimRoute(g *roadnet.Graph, r roadnet.Route, start, end geo.Point) roadnet.Route {
	for len(r) >= 2 && g.Seg(r[0]).Shape.Dist(start) > g.Seg(r[1]).Shape.Dist(start) {
		r = r[1:]
	}
	for len(r) >= 2 && g.Seg(r[len(r)-1]).Shape.Dist(end) > g.Seg(r[len(r)-2]).Shape.Dist(end) {
		r = r[:len(r)-1]
	}
	return r
}

// PairLocalRoutes exposes local route inference for a single query pair
// with an explicit method — the unit the Figure 10–13 experiments measure:
// the same pairStage a whole query runs, with no fallback substituted when
// it finds nothing. The method override lives in this call's private Params
// copy, so it is safe to run concurrently with any other inference on the
// same engine.
func (e *Engine) PairLocalRoutes(qi, qj traj.GPSPoint, m Method, p Params) ([]LocalRoute, PairStats) {
	p.Method = m
	x := e.newExec(context.Background(), p, e.src.Current())
	x.sc = e.getScratch()
	defer e.putScratch(x.sc)
	locals, st, _ := x.pairStage(0, qi, qj)
	return locals, st
}

// PairBridges runs e.PairLocalRoutes(qi, qj, m, p) and returns the distinct
// ⟨from, to⟩ vertex pairs its local inference bridged, ascending: the
// shortest-path queries that pair puts to the distance oracle. It is the
// fixture of benchmarks that replay them through each oracle.
func PairBridges(e *Engine, qi, qj traj.GPSPoint, m Method, p Params) [][2]roadnet.VertexID {
	p.Method = m
	x := e.newExec(context.Background(), p, e.src.Current())
	x.sc = e.getScratch()
	defer e.putScratch(x.sc)
	x.sc.bridges.Reset(e.g) // a pair that stops before its context asks none
	x.pairStage(0, qi, qj)
	return x.sc.bridges.Pairs()
}

// filterByTimeOfDay keeps references whose sub-trajectory starts within
// window seconds (circularly) of the query point's time of day — the
// paper's future-work temporal extension. Travel patterns can differ by
// time of day (commuting asymmetries), so same-period history is the
// relevant evidence.
func filterByTimeOfDay(v hist.View, refs []hist.Reference, queryT, window float64) []hist.Reference {
	if window <= 0 {
		return refs
	}
	const day = 86400.0
	// timeOfDay folds t into [0, day): math.Mod keeps t's sign, and a
	// negative remainder would put |rt − qt| past a day.
	timeOfDay := func(t float64) float64 {
		d := math.Mod(t, day)
		if d < 0 {
			d += day
		}
		return d
	}
	qt := timeOfDay(queryT)
	out := refs[:0:0]
	for _, r := range refs {
		a, _ := r.Runs(v)
		if len(a) == 0 {
			continue
		}
		rt := timeOfDay(a[0].T)
		d := math.Abs(rt - qt)
		if d > day/2 {
			d = day - d
		}
		if d <= window {
			out = append(out, r)
		}
	}
	return out
}
