package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graphalg"
	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// ErrSessionClosed is returned by Push/Finalize on a session that was
// already finalized or closed.
var ErrSessionClosed = errors.New("core: session closed")

// DefaultSessionWindow is the provisional-tail window when SessionConfig
// leaves it unset: how many trailing pairs each SessionUpdate materializes.
// Eight pairs is past the point where the posterior's top partial has
// stabilized on this workload (eval.World.SessionProfile sweeps it).
const DefaultSessionWindow = 8

// SessionUpdate is the incremental answer emitted after each pushed point:
// how much of the route has firmed up and the current best guess for its
// tail. Provisional is allocated afresh for each update, so it is stable
// across later pushes.
type SessionUpdate struct {
	// Seq is the 0-based index of the point just pushed; Pairs is the
	// number of query pairs inferred so far (Seq, for an uninterrupted
	// session).
	Seq   int
	Pairs int
	// FirmPairs counts the leading pairs on which every surviving partial
	// in the posterior agrees: no future point can change their local-route
	// choice (the DP only extends partials, never revises a shared prefix),
	// so a consumer may commit them. Update lag = Pairs - FirmPairs.
	FirmPairs int
	// Provisional is the best-scoring partial's tail, materialized over the
	// last min(window, Pairs) pairs — the session's current best guess at
	// where the vehicle has just been. Empty until the first pair resolves.
	Provisional roadnet.Route
	// Score is the best partial's accumulated K-GRI score.
	Score float64
	// Degraded marks that this point's pair inference hit its deadline and
	// fell back to a shortest path.
	Degraded bool
}

// Session is the incremental form of InferRoutes: it accepts one timestamped
// GPS point at a time and maintains the K-GRI posterior online, extending
// the dynamic program by exactly one column per point instead of re-solving
// from scratch. Finalize returns a *Result byte-identical to what
// InferRoutesCtx would produce on the completed trace — the equivalence the
// session tests pin — because InferRoutesCtx is this same fold on another
// schedule: exec.solvePair per pair, commit per outcome, finish at the end.
//
// Memory and time: the session retains every pair's capped local-route set
// (Result must report them, and the posterior's nodes index into them) and
// every posterior column of at most K3 · MaxLocalRoutes back-pointer nodes,
// so state grows O(points) with a small constant. Per-push work, on top of
// the pair inference itself, does not grow with the trip: the new column
// sorts m·K candidates for each of its m local routes (m = MaxLocalRoutes,
// K = K3), and ties and the firmness walk reach back only over the unfirm
// lag, so a push costs O(m²·K·log(m·K) + m·K·lag), and the provisional tail
// adds O(window).
// cmd/hris's /stream handler bounds points per session and sessions per
// process.
//
// A Session is NOT safe for concurrent use; one vehicle's points arrive in
// order on one connection. Distinct sessions sharing one Engine are safe —
// all shared engine state is immutable or internally synchronized, and the
// pooled scratch is checked out per push under the PR 9 ownership rule.
type Session struct {
	eng    *Engine
	p      Params
	snap   hist.View
	window int

	first traj.GPSPoint // trimRoute's start anchor
	prev  traj.GPSPoint // previous accepted point
	n     int           // points accepted
	// near carries prev's near set from one push to the next, so a push walks
	// the index once; it stays valid across epoch publishes, snap being pinned.
	near hist.NearSet

	res  *Result    // accumulating Pairs/Locals/Degraded, in pair order
	post *posterior // K-GRI posterior, one column per absorbed pair
	tail []int      // provisionalTail's local-route indices
	// stall is the first pair the posterior did not absorb because the
	// query deadline had closed (0 = none: pair 0 only seeds). From there on
	// post stays put and finish extends its best partial greedily.
	stall int

	err    error // sticky fatal error (a pair with no routes)
	closed bool
}

// SessionConfig shapes one streaming session.
type SessionConfig struct {
	// Window is the provisional-tail length in pairs (DefaultSessionWindow
	// when < 1). It only affects SessionUpdate.Provisional — never the
	// posterior, the firm prefix, or the finalized result.
	Window int
}

// NewSession opens a streaming inference session with the engine. Like one
// InferRoutes invocation, the session pins the archive snapshot current at
// creation for its whole lifetime — a long-lived session deliberately reads
// one consistent epoch while the live store keeps publishing new ones.
// p.Deadline, when set, budgets each Push individually (offline it budgets
// the whole query; per-point is the streaming analogue).
func (e *Engine) NewSession(p Params, cfg SessionConfig) *Session {
	return e.newSession(p, cfg, e.src.Current())
}

// newSession is NewSession pinned to snap.
func (e *Engine) newSession(p Params, cfg SessionConfig, snap hist.View) *Session {
	w := cfg.Window
	if w < 1 {
		w = DefaultSessionWindow
	}
	return &Session{
		eng:    e,
		p:      p,
		snap:   snap,
		window: w,
		res:    &Result{},
		post:   newPosterior(p.K3, p.AblateTransition),
	}
}

// Push feeds the next GPS point and returns the incremental update. The
// first point only anchors the session. Outright context cancellation
// returns the context error with the point NOT consumed (the caller may
// retry it); deadline expiry (p.Deadline per push) degrades the pair to a
// shortest-path fallback exactly like the offline pipeline. A pair that
// yields no local routes at all is fatal: the error is returned, remembered,
// and re-returned by Finalize — matching InferRoutesCtx on the same trace.
func (s *Session) Push(ctx context.Context, pt traj.GPSPoint) (SessionUpdate, error) {
	if s.closed {
		return SessionUpdate{}, ErrSessionClosed
	}
	if s.err != nil {
		return SessionUpdate{}, s.err
	}
	if s.p.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.p.Deadline)
		defer cancel()
	}
	x := s.eng.newExec(ctx, s.p, s.snap)
	if err := x.abortErr(); err != nil {
		return SessionUpdate{}, err
	}
	if s.n == 0 {
		s.prev, s.n = pt, 1
		return SessionUpdate{Seq: 0}, nil
	}
	i := s.n - 1 // index of the pair this point completes
	// Scratch is checked out for exactly this push and returned before any
	// state is committed: the ownership rule (nothing scratch-backed crosses
	// a stage boundary) holds per point exactly as it holds per query.
	x.sc, x.near = s.eng.getScratch(), &s.near
	out := x.solvePair(i, s.prev, pt)
	s.eng.putScratch(x.sc)
	if err := x.abortErr(); err != nil {
		return SessionUpdate{}, err // cancelled outright: point not consumed
	}
	// The push's deadline budgets the pair inference only; the posterior
	// always absorbs the outcome (done = nil), so a stream never stalls.
	if err := s.commit(i, s.prev, pt, out, nil); err != nil {
		return SessionUpdate{}, err
	}
	upd := SessionUpdate{Seq: s.n - 1, Pairs: s.n - 1, Degraded: out.stats.Degraded}
	upd.FirmPairs = s.post.firm()
	upd.Provisional, upd.Score = s.provisionalTail()
	return upd, nil
}

// commit folds pair i's outcome ⟨qi, qj⟩ into the session: the result
// grows by one pair and the K-GRI posterior by one column (Algorithm 3
// extends one column per query point by construction). This is the only
// place the dynamic program advances, for a stream and for an offline query
// alike. A pair with no local routes (only possible when the deterministic
// fallback itself found no path) is fatal and sticky — no chain of local
// routes can bridge it.
//
// done is the offline query's cancellation signal (nil for a stream): at
// each pair boundary after it has closed, the posterior stops extending and
// the session remembers where (stall) — finish then completes the route
// greedily. For a given interruption point the output is deterministic.
func (s *Session) commit(i int, qi, qj traj.GPSPoint, out pairOutcome, done <-chan struct{}) error {
	if len(out.locals) == 0 {
		s.err = fmt.Errorf("core: pair %d (%v -> %v): %w", i, qi.Pt, qj.Pt, ErrNoRoutes)
		return s.err
	}
	s.res.Pairs = append(s.res.Pairs, out.stats)
	s.res.Locals = append(s.res.Locals, out.locals)
	s.res.Degraded = s.res.Degraded || out.stats.Degraded
	switch {
	case i == 0:
		s.first = qi
		s.post.push(out.locals)
	case s.stall > 0: // already stalled: the posterior stays at the stall column
	case graphalg.Stopped(done):
		s.stall = i
		s.res.Degraded = true
	default:
		s.post.push(out.locals)
	}
	s.prev, s.n = qj, i+2
	return nil
}

// finish ends the fold: the terminal K-GRI ranking over the accumulated
// posterior (or, for a stalled posterior, greedyFinish from the stall index)
// plus the endpoint trimming.
func (s *Session) finish() (*Result, error) {
	res, post := s.res, s.post
	s.res, s.post = nil, nil
	g := s.eng.g
	if s.stall > 0 {
		res.Routes = greedyFinish(g, res.Locals, post)
	} else {
		res.Routes = materialize(g, res.Locals, post.rank())
	}
	if len(res.Routes) == 0 {
		return nil, ErrNoRoutes
	}
	if !s.p.AblateTrim {
		for i := range res.Routes {
			res.Routes[i].Route = trimRoute(g, res.Routes[i].Route, s.first.Pt, s.prev.Pt)
		}
	}
	if res.Degraded && s.eng.met != nil {
		s.eng.met.degraded.Inc()
	}
	return res, nil
}

// Finalize closes the session and assembles the whole-trace Result —
// byte-identical to InferRoutesCtx on the same points against the same
// snapshot. After Finalize the session rejects further use.
func (s *Session) Finalize() (*Result, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.closed = true
	if s.err != nil {
		return nil, s.err
	}
	if s.n < 2 {
		return nil, ErrEmptyQuery
	}
	return s.finish()
}

// Close abandons the session without finalizing, releasing its state.
// Closing an already-closed session is a no-op.
func (s *Session) Close() {
	s.closed = true
	s.res, s.post = nil, nil
}

// Points returns how many points the session has accepted.
func (s *Session) Points() int { return s.n }

// Epoch returns the archive epoch the session pinned at creation.
func (s *Session) Epoch() uint64 { return s.snap.Epoch() }

// provisionalTail materializes the best partial's last min(window, pairs)
// local routes into a route — the per-update cost is O(window), independent
// of how long the session has run. A failed splice truncates the tail at the
// break instead of failing the update (materialize would drop the whole
// candidate; a best-effort live tail is more useful than none).
func (s *Session) provisionalTail() (roadnet.Route, float64) {
	best, ok := s.post.best()
	if !ok {
		return nil, 0
	}
	cols := len(s.post.cols)
	lo := max(cols-s.window, 0)
	s.tail = s.post.path(s.tail, best, cols-lo)
	route, _ := joinParts(s.eng.g, s.res.Locals[lo:], s.tail)
	return route, s.post.cols[cols-1][best].score
}
