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

// TestGateConcurrentIdenticalQueries: identical queries issued concurrently
// through the gate each get a Result byte-identical to a direct
// InferRoutesCtx answer for that query — the gate adds admission and
// queueing, never a different answer.
func TestGateConcurrentIdenticalQueries(t *testing.T) {
	eng, _, queries := gateWorld(t)
	v := eng.Source().Current()
	queries = queries[:2]
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := eng.InferRoutesCtx(context.Background(), q, eng.Defaults())
		if err != nil {
			t.Fatalf("reference inference %d: %v", i, err)
		}
		want[i] = encodeFull(v, res)
	}
	const perQuery = 4
	g := NewGate(eng, GateConfig{MaxInflight: 2, QueueDepth: len(queries) * perQuery})
	var wg sync.WaitGroup
	for i := 0; i < len(queries)*perQuery; i++ {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			res, err := g.Do(context.Background(), queries[qi], eng.Defaults())
			if err != nil {
				t.Errorf("query %d through the gate: %v", qi, err)
				return
			}
			if got := encodeFull(v, res); got != want[qi] {
				t.Errorf("query %d through the gate differs from InferRoutesCtx:\n%s\nvs\n%s", qi, got, want[qi])
			}
		}(i % len(queries))
	}
	wg.Wait()
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
