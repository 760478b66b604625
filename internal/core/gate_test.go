package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/traj"
)

// gateWorld builds a small instrumented engine plus query material for the
// admission-control tests.
func gateWorld(t *testing.T) (*Engine, *obs.Registry, []*traj.Trajectory) {
	t.Helper()
	ds, queries := liveWorld(40, 11)
	reg := obs.New()
	eng := NewEngineWithRegistry(hist.NewArchive(ds.City.Graph, ds.Archive), DefaultParams(), reg)
	return eng, reg, queries
}

// TestGateQueueFull pins the admission bound: with MaxInflight=1 and
// QueueDepth=1, a third concurrent request is rejected with ErrQueueFull
// while the first two are served, and the rejection is visible in the
// server.shed.queue counter. The slotHeld seam holds the first request on
// its worker slot so the interleaving is deterministic.
func TestGateQueueFull(t *testing.T) {
	eng, reg, queries := gateWorld(t)
	g := NewGate(eng, GateConfig{MaxInflight: 1, QueueDepth: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	g.slotHeld = func() {
		entered <- struct{}{}
		<-release
	}

	type outcome struct {
		res *Result
		err error
	}
	results := make(chan outcome, 2)
	do := func(q *traj.Trajectory) {
		res, err := g.Do(context.Background(), q, eng.Defaults())
		results <- outcome{res, err}
	}
	go do(queries[0])
	<-entered // request 1 holds the only slot
	go do(queries[1])
	waitFor(t, func() bool { return g.admitted.Load() == 2 }) // request 2 is queued
	if _, err := g.Do(context.Background(), queries[2], eng.Defaults()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third concurrent request: err = %v, want ErrQueueFull", err)
	}
	close(release)
	for i := 0; i < 2; i++ {
		out := <-results
		if out.err != nil || out.res == nil || len(out.res.Routes) == 0 {
			t.Fatalf("admitted request failed: res=%v err=%v", out.res, out.err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.CounterServerShed] != 1 || snap.Counters[obs.CounterServerShedQueue] != 1 {
		t.Fatalf("shed counters = %d/%d, want 1/1",
			snap.Counters[obs.CounterServerShed], snap.Counters[obs.CounterServerShedQueue])
	}
	if got := snap.Stages[obs.HistServerInflight].Max; got > time.Microsecond {
		t.Fatalf("inflight pseudo-gauge max = %v, want <= 1µs (MaxInflight=1)", got)
	}
	if got := snap.Stages[obs.HistServerQueueWait].Count; got != 2 {
		t.Fatalf("queue_wait observations = %d, want 2 (rejects never reach the queue)", got)
	}
	if g.admitted.Load() != 0 {
		t.Fatalf("admitted = %d after drain, want 0", g.admitted.Load())
	}
}

// TestGateShedExpired covers both shed sites: a queued request whose budget
// lapses while waiting is shed from the queue select, and a dequeued request
// whose remaining budget is below the gate's latency estimate is shed before
// inference starts. Both return ErrShedExpired and count as
// server.shed.expired.
func TestGateShedExpired(t *testing.T) {
	eng, reg, queries := gateWorld(t)
	g := NewGate(eng, GateConfig{MaxInflight: 1, QueueDepth: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	g.slotHeld = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default: // only the first request blocks
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.Do(context.Background(), queries[0], eng.Defaults())
		done <- err
	}()
	<-entered
	// Queued behind a stuck worker with a 15ms budget: the deadline fires in
	// the queue select.
	p := eng.Defaults()
	p.Deadline = 15 * time.Millisecond
	if _, err := g.Do(context.Background(), queries[1], p); !errors.Is(err, ErrShedExpired) {
		t.Fatalf("queued past deadline: err = %v, want ErrShedExpired", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held request failed: %v", err)
	}

	// Dequeue-site shed: prime the query-stage histogram so the estimate
	// (p50 ≈ 50ms) exceeds a 10ms budget — the request gets a slot
	// immediately and is still refused.
	for i := 0; i < 8; i++ {
		reg.Histogram(obs.StageQuery).Observe(50 * time.Millisecond)
	}
	p = eng.Defaults()
	p.Deadline = 10 * time.Millisecond
	if _, err := g.Do(context.Background(), queries[2], p); !errors.Is(err, ErrShedExpired) {
		t.Fatalf("dequeue with budget < estimate: err = %v, want ErrShedExpired", err)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.CounterServerShedExpired] != 2 || snap.Counters[obs.CounterServerShed] != 2 {
		t.Fatalf("shed.expired/shed = %d/%d, want 2/2",
			snap.Counters[obs.CounterServerShedExpired], snap.Counters[obs.CounterServerShed])
	}

	// A deadline the caller's own context carried is the caller's timeout,
	// not a server shed: Do reports context.DeadlineExceeded instead.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	waitFor(t, func() bool { return ctx.Err() != nil })
	if _, err := g.Do(ctx, queries[2], eng.Defaults()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller-expired context: err = %v, want DeadlineExceeded", err)
	}
	if got := reg.Snapshot().Counters[obs.CounterServerShed]; got != 2 {
		t.Fatalf("caller timeout must not count as a shed: shed = %d, want 2", got)
	}
}

// TestGateCoalesce pins single-flight semantics: two followers arriving
// while an identical query is in flight share the leader's Result (the same
// pointer), only the leader's inference runs, and server.coalesced counts
// the followers.
func TestGateCoalesce(t *testing.T) {
	eng, reg, queries := gateWorld(t)
	g := NewGate(eng, GateConfig{MaxInflight: 3, QueueDepth: 3})
	release := make(chan struct{})
	registered := make(chan struct{}, 1)
	g.flightRegistered = func() {
		registered <- struct{}{}
		<-release
	}
	type outcome struct {
		res *Result
		err error
	}
	results := make(chan outcome, 3)
	do := func() {
		res, err := g.Do(context.Background(), queries[0], eng.Defaults())
		results <- outcome{res, err}
	}
	go do()
	<-registered // leader's flight is visible
	go do()
	go do()
	waitFor(t, func() bool {
		return reg.Snapshot().Counters[obs.CounterServerCoalesced] == 2
	})
	close(release)
	var all []outcome
	for i := 0; i < 3; i++ {
		all = append(all, <-results)
	}
	for i, out := range all {
		if out.err != nil || out.res == nil {
			t.Fatalf("coalesced call %d failed: %v", i, out.err)
		}
		if out.res != all[0].res {
			t.Fatalf("coalesced calls returned distinct results: %p vs %p", out.res, all[0].res)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["queries"]; got != 1 {
		t.Fatalf("engine ran %d inferences, want 1 (followers coalesced)", got)
	}
	if got := snap.Counters[obs.CounterServerCoalesced]; got != 2 {
		t.Fatalf("server.coalesced = %d, want 2", got)
	}
}

// TestGateCoalesceHashCollision: the query hash only locates a flight — a
// caller whose hash collides with an in-flight leader over different points
// must get its own answer, not the leader's (hash-and-verify, like routeSeen
// and pathHash). The hash seam forces every query onto one flight key.
func TestGateCoalesceHashCollision(t *testing.T) {
	eng, reg, queries := gateWorld(t)
	g := NewGate(eng, GateConfig{MaxInflight: 2, QueueDepth: 2})
	g.hash = func(*traj.Trajectory) uint64 { return 42 }
	release := make(chan struct{})
	registered := make(chan struct{}, 1)
	g.flightRegistered = func() {
		registered <- struct{}{}
		<-release
	}
	type outcome struct {
		res *Result
		err error
	}
	leader := make(chan outcome, 1)
	go func() {
		res, err := g.Do(context.Background(), queries[0], eng.Defaults())
		leader <- outcome{res, err}
	}()
	<-registered // the leader's flight over queries[0] is visible and held
	// The colliding caller must finish while the leader is still in flight:
	// joining the flight would block it until release (bounded here by the
	// context, so a regression fails instead of hanging).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := g.Do(ctx, queries[1], eng.Defaults())
	close(release)
	if err != nil {
		t.Fatalf("colliding query: %v", err)
	}
	first := <-leader
	if first.err != nil {
		t.Fatalf("leader: %v", first.err)
	}
	for i, res := range []*Result{first.res, got} {
		want, err := eng.InferRoutes(queries[i], eng.Defaults())
		if err != nil {
			t.Fatalf("reference inference %d: %v", i, err)
		}
		if encodeRoutes(res) != encodeRoutes(want) {
			t.Fatalf("query %d got another query's routes", i)
		}
	}
	if n := reg.Snapshot().Counters[obs.CounterServerCoalesced]; n != 0 {
		t.Fatalf("server.coalesced = %d, want 0 (nothing identical was in flight)", n)
	}
}

// TestGateCoalesceLeaderCancelled: a follower must not inherit the leader's
// client-gone cancellation — it recomputes under its own live context.
func TestGateCoalesceLeaderCancelled(t *testing.T) {
	eng, _, queries := gateWorld(t)
	g := NewGate(eng, GateConfig{MaxInflight: 2, QueueDepth: 2})
	release := make(chan struct{})
	registered := make(chan struct{}, 1)
	g.flightRegistered = func() {
		select {
		case registered <- struct{}{}:
			<-release
		default: // the follower's recompute takes the direct path anyway
		}
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := g.Do(leaderCtx, queries[0], eng.Defaults())
		leaderErr <- err
	}()
	<-registered
	followerRes := make(chan *Result, 1)
	followerErr := make(chan error, 1)
	go func() {
		res, err := g.Do(context.Background(), queries[0], eng.Defaults())
		followerRes <- res
		followerErr <- err
	}()
	waitFor(t, func() bool {
		return eng.Metrics().Counters[obs.CounterServerCoalesced] == 1
	})
	cancelLeader()
	close(release)
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader: err = %v, want Canceled", err)
	}
	if err := <-followerErr; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if res := <-followerRes; res == nil || len(res.Routes) == 0 {
		t.Fatalf("follower got no result after recompute")
	}
}

// TestGateFlightKeys pins what may and may not coalesce: the key must
// separate different point sequences and different parameter sets, and must
// fold in the archive generation so a flight started against an older epoch
// is invisible after an ingest.
func TestGateFlightKeys(t *testing.T) {
	_, _, queries := gateWorld(t)
	if hashQuery(queries[0]) == hashQuery(queries[1]) {
		t.Fatalf("distinct queries hash equal")
	}
	p1, p2 := DefaultParams(), DefaultParams()
	p2.Phi *= 2
	k1 := flightKey{qhash: hashQuery(queries[0]), params: p1}
	k2 := flightKey{qhash: hashQuery(queries[0]), params: p2}
	if k1 == k2 {
		t.Fatalf("different params produce equal flight keys")
	}
	k3 := k1
	k3.epoch++
	if k1 == k3 {
		t.Fatalf("different epochs produce equal flight keys")
	}
}

// TestGateConcurrentBurst floods a tiny gate from many goroutines under the
// race detector: every outcome must be a served result or a typed shed, the
// inflight pseudo-gauge must never exceed MaxInflight, and the admission
// counter must return to zero.
func TestGateConcurrentBurst(t *testing.T) {
	eng, reg, queries := gateWorld(t)
	g := NewGate(eng, GateConfig{MaxInflight: 2, QueueDepth: 2})
	const clients = 16
	var wg sync.WaitGroup
	var served, shed atomic32
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := eng.Defaults()
			p.Deadline = 2 * time.Second
			res, err := g.Do(context.Background(), queries[i%len(queries)], p)
			switch {
			case err == nil && res != nil:
				served.inc()
			case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShedExpired):
				shed.inc()
			default:
				t.Errorf("unexpected outcome: res=%v err=%v", res, err)
			}
		}(i)
	}
	wg.Wait()
	if served.load()+shed.load() != clients {
		t.Fatalf("served %d + shed %d != %d", served.load(), shed.load(), clients)
	}
	if served.load() == 0 {
		t.Fatalf("burst served nothing")
	}
	snap := reg.Snapshot()
	if got := snap.Stages[obs.HistServerInflight].Max; got > 2*time.Microsecond {
		t.Fatalf("inflight max = %v, want <= 2µs (MaxInflight=2)", got)
	}
	if snap.Counters[obs.CounterServerShed] != uint64(shed.load()) {
		t.Fatalf("shed counter %d != observed sheds %d", snap.Counters[obs.CounterServerShed], shed.load())
	}
	if g.admitted.Load() != 0 {
		t.Fatalf("admitted = %d after burst, want 0", g.admitted.Load())
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// atomic32 is a tiny test counter.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) inc() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	return a.n
}

func (a *atomic32) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}
