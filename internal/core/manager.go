package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/traj"
)

// ErrTooManySessions is returned by SessionManager.Open at capacity.
var ErrTooManySessions = errors.New("core: session limit reached")

// ErrDuplicateSession is returned by Open when the vehicle id already has an
// active session.
var ErrDuplicateSession = errors.New("core: session id already active")

// ErrSessionEvicted is returned by a managed session's Push/Finalize after
// the idle janitor reclaimed it.
var ErrSessionEvicted = errors.New("core: session evicted (idle timeout)")

// ErrSessionFull is returned by Push once a managed session reached its
// per-session point cap; the caller should Finalize and reopen.
var ErrSessionFull = errors.New("core: session point limit reached")

// SessionManagerConfig bounds the streaming-session substrate. The defaults
// target tens of thousands of concurrent vehicles: per-session state is a
// capped local-route set per pair, so MaxSessions × MaxPoints bounds resident
// memory, and the idle janitor reclaims vehicles that stopped reporting
// without closing their stream.
type SessionManagerConfig struct {
	// MaxSessions caps concurrently active sessions (default 16384; < 0
	// means unlimited). Admission is a single atomic counter — rejection
	// under overload is lock-free, the same discipline as core.Gate.
	MaxSessions int
	// MaxPoints caps points per session (default 4096; < 0 unlimited).
	MaxPoints int
	// IdleTimeout evicts sessions with no Push for this long (default 5m;
	// <= 0 disables the janitor).
	IdleTimeout time.Duration
	// SweepEvery is the janitor period (default IdleTimeout/4).
	SweepEvery time.Duration
	// Window is the provisional-tail window for sessions the manager opens.
	Window int
}

// SessionManager owns the streaming sessions of one engine: gate-style
// admission for session creation, per-vehicle lookup, bounded per-session
// memory and idle eviction. All methods are safe for concurrent use; the
// sessions it hands out are still driven by one goroutine each (one
// vehicle, one connection), with a per-session lock making janitor
// reclamation safe against an in-flight call.
type SessionManager struct {
	eng *Engine
	cfg SessionManagerConfig

	// active is the admission counter: incremented optimistically at Open,
	// decremented exactly once per session at release (finalize, abort or
	// eviction — whichever happens first).
	active atomic.Int64

	mu       sync.Mutex
	sessions map[string]*VehicleSession

	stop chan struct{}
	wg   sync.WaitGroup

	created, rejected, duplicate, evicted, finalized, aborted, points *obs.Counter
	stepHist, finHist, lagHist                                        *obs.Histogram
}

// NewSessionManager builds a manager over the engine, resolving its
// instruments from the engine's registry (nil-safe: an uninstrumented
// engine records nothing). The idle janitor starts immediately when
// IdleTimeout > 0; Close stops it.
func NewSessionManager(eng *Engine, cfg SessionManagerConfig) *SessionManager {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 16384
	}
	if cfg.MaxPoints == 0 {
		cfg.MaxPoints = 4096
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.IdleTimeout / 4
	}
	reg := eng.Registry()
	m := &SessionManager{
		eng:       eng,
		cfg:       cfg,
		sessions:  make(map[string]*VehicleSession),
		stop:      make(chan struct{}),
		created:   reg.Counter(obs.CounterSessionCreated),
		rejected:  reg.Counter(obs.CounterSessionRejected),
		duplicate: reg.Counter(obs.CounterSessionDuplicate),
		evicted:   reg.Counter(obs.CounterSessionEvicted),
		finalized: reg.Counter(obs.CounterSessionFinalized),
		aborted:   reg.Counter(obs.CounterSessionAborted),
		points:    reg.Counter(obs.CounterSessionPoints),
		stepHist:  reg.Histogram(obs.HistSessionStep),
		finHist:   reg.Histogram(obs.HistSessionFinalize),
		lagHist:   reg.Histogram(obs.HistSessionLag),
	}
	if cfg.IdleTimeout > 0 {
		m.wg.Add(1)
		go m.janitor()
	}
	return m
}

// Open admits a new session for the vehicle id, or rejects lock-free with
// ErrTooManySessions at capacity (the caller maps it to HTTP 429). A second
// session for an id that is still active is refused with
// ErrDuplicateSession — one vehicle streams on one connection.
func (m *SessionManager) Open(id string, p Params) (*VehicleSession, error) {
	if max := m.cfg.MaxSessions; max > 0 && m.active.Add(1) > int64(max) {
		m.active.Add(-1)
		m.rejected.Inc()
		return nil, ErrTooManySessions
	}
	vs := &VehicleSession{
		id:  id,
		mgr: m,
		s:   m.eng.NewSession(p, SessionConfig{Window: m.cfg.Window}),
	}
	vs.touch()
	m.mu.Lock()
	if _, dup := m.sessions[id]; dup {
		m.mu.Unlock()
		m.active.Add(-1)
		m.duplicate.Inc()
		return nil, ErrDuplicateSession
	}
	m.sessions[id] = vs
	m.mu.Unlock()
	m.created.Inc()
	return vs, nil
}

// Active reports the number of currently admitted sessions.
func (m *SessionManager) Active() int { return int(m.active.Load()) }

// Close stops the janitor and aborts every remaining session. Streams
// still holding a VehicleSession observe ErrSessionEvicted on their next
// call.
func (m *SessionManager) Close() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.wg.Wait()
	m.mu.Lock()
	all := make([]*VehicleSession, 0, len(m.sessions))
	for _, vs := range m.sessions {
		all = append(all, vs)
	}
	m.mu.Unlock()
	for _, vs := range all {
		vs.evict()
	}
}

// janitor periodically evicts sessions whose last Push is older than
// IdleTimeout, so vehicles that silently vanish do not pin memory forever.
func (m *SessionManager) janitor() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-m.cfg.IdleTimeout).UnixNano()
			m.mu.Lock()
			var idle []*VehicleSession
			for _, vs := range m.sessions {
				if vs.lastTouch.Load() < cutoff {
					idle = append(idle, vs)
				}
			}
			m.mu.Unlock()
			for _, vs := range idle {
				if vs.evict() {
					m.evicted.Inc()
				}
			}
		}
	}
}

// VehicleSession is a manager-owned session: the underlying incremental
// Session plus the bookkeeping (idle stamp, point cap, single-release
// accounting) the manager needs. Like Session, it is driven by one owner
// goroutine; eviction from the janitor closes the underlying Session under
// mu, so a reclaim landing mid-Push waits for that call to finish and the
// owner observes ErrSessionEvicted on its next one.
type VehicleSession struct {
	id  string
	mgr *SessionManager

	// mu serializes every access to s between the owner goroutine
	// (Push/Finalize/Abort) and the janitor or manager Close (evict) —
	// the Session itself is a single-goroutine object.
	mu sync.Mutex
	s  *Session

	lastTouch atomic.Int64
	gone      atomic.Bool // evicted by janitor or manager shutdown
	released  atomic.Bool // admission slot given back (exactly once)
}

// Epoch returns the archive epoch the session pinned at creation.
func (vs *VehicleSession) Epoch() uint64 { return vs.s.Epoch() }

func (vs *VehicleSession) touch() { vs.lastTouch.Store(time.Now().UnixNano()) }

// Push feeds the next point through the managed session, stamping the idle
// clock and recording the step latency and update lag. At the point cap it
// returns ErrSessionFull with the point not consumed — the stream layer
// finalizes and lets the vehicle reopen.
func (vs *VehicleSession) Push(ctx context.Context, pt traj.GPSPoint) (SessionUpdate, error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.gone.Load() {
		return SessionUpdate{}, ErrSessionEvicted
	}
	if max := vs.mgr.cfg.MaxPoints; max > 0 && vs.s.Points() >= max {
		return SessionUpdate{}, ErrSessionFull
	}
	vs.touch()
	t0 := time.Now()
	upd, err := vs.s.Push(ctx, pt)
	if err != nil {
		if errors.Is(err, ErrNoRoutes) {
			// Fatal for the session: release it now so the vehicle can
			// reopen; the stream layer reports the error downstream.
			vs.abortLocked()
		}
		return upd, err
	}
	vs.mgr.points.Inc()
	vs.mgr.stepHist.Observe(time.Since(t0))
	// Update lag, encoded 1µs per unfirmed pair (see obs.HistSessionLag).
	vs.mgr.lagHist.Observe(time.Duration(upd.Pairs-upd.FirmPairs) * time.Microsecond)
	return upd, nil
}

// Finalize completes the session, releases it from the manager and returns
// the whole-trace result (or the session's sticky error).
func (vs *VehicleSession) Finalize() (*Result, error) {
	vs.mu.Lock()
	if vs.gone.Load() {
		vs.mu.Unlock()
		return nil, ErrSessionEvicted
	}
	t0 := time.Now()
	res, err := vs.s.Finalize()
	vs.mu.Unlock()
	vs.release()
	if err != nil {
		vs.mgr.aborted.Inc()
		return nil, err
	}
	vs.mgr.finalized.Inc()
	vs.mgr.finHist.Observe(time.Since(t0))
	return res, nil
}

// Abort closes the session without finalizing (client vanished mid-stream).
// Aborting an already-finalized or evicted session is a no-op.
func (vs *VehicleSession) Abort() {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.abortLocked()
}

// abortLocked closes the underlying session and gives the slot back; the
// caller must hold vs.mu.
func (vs *VehicleSession) abortLocked() {
	vs.s.Close()
	if vs.release() {
		vs.mgr.aborted.Inc()
	}
}

// evict marks the session gone, closes it and releases the slot; reports
// whether this call did the release (false when the owner already
// finalized/aborted). gone is set before taking the lock, so an owner
// blocked behind an eviction in progress observes it as soon as its own
// call acquires vs.mu.
func (vs *VehicleSession) evict() bool {
	vs.gone.Store(true)
	vs.mu.Lock()
	vs.s.Close()
	vs.mu.Unlock()
	return vs.release()
}

// release gives the admission slot back and unregisters the id, exactly
// once no matter how many of finalize/abort/evict race.
func (vs *VehicleSession) release() bool {
	if !vs.released.CompareAndSwap(false, true) {
		return false
	}
	m := vs.mgr
	m.mu.Lock()
	if m.sessions[vs.id] == vs {
		delete(m.sessions, vs.id)
	}
	m.mu.Unlock()
	m.active.Add(-1)
	return true
}
