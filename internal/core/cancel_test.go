package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestInferRoutesCtxPreCancelled: a context cancelled before the call aborts
// immediately with the context error, before any pipeline work — the queries
// counter stays untouched (only started queries are counted) while
// query.cancelled records the abort.
func TestInferRoutesCtxPreCancelled(t *testing.T) {
	w := newWorld(t, 200, 211)
	reg := obs.New()
	eng := NewEngineWithRegistry(w.eng.Source(), DefaultParams(), reg)
	q := w.queries(t, 1)[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.InferRoutesCtx(ctx, q, DefaultParams())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled query returned a result: %+v", res)
	}
	s := eng.Metrics()
	if got := s.Counters["queries"]; got != 0 {
		t.Fatalf("queries counter = %d, want 0 (query never started)", got)
	}
	if got := s.Counters[obs.CounterQueryCancelled]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CounterQueryCancelled, got)
	}
	if got := s.Counters[obs.CounterQueryDegraded]; got != 0 {
		t.Fatalf("%s = %d, want 0 (cancellation is not degradation)",
			obs.CounterQueryDegraded, got)
	}
	if got := s.Stages[obs.StageQuery].Count; got != 0 {
		t.Fatalf("query stage count = %d, want 0", got)
	}
}

// TestInferRoutesDeadlineDegrades: a deadline that has effectively already
// expired still yields a usable answer — every pair falls back to its
// shortest path, the result is flagged Degraded, and the whole thing is fast
// (graceful degradation must not cost more than the work it skips). The
// degraded path is deterministic: the same expired query gives the same
// routes every time.
func TestInferRoutesDeadlineDegrades(t *testing.T) {
	w := newWorld(t, 300, 223)
	reg := obs.New()
	eng := NewEngineWithRegistry(w.eng.Source(), DefaultParams(), reg)
	q := w.queries(t, 1)[0]
	p := DefaultParams()
	p.Deadline = time.Nanosecond // expired before the first checkpoint

	t0 := time.Now()
	res, err := eng.InferRoutesCtx(context.Background(), q, p)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatalf("InferRoutesCtx: %v", err)
	}
	// The acceptance bar is <50 ms on the bench world; allow slack for
	// loaded CI machines and the race detector without losing the point.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("degraded query took %v, want well under 500ms", elapsed)
	}
	if !res.Degraded {
		t.Fatal("result not flagged Degraded")
	}
	if len(res.Routes) == 0 {
		t.Fatal("degraded result has no routes")
	}
	for i, r := range res.Routes {
		if len(r.Route) == 0 || r.Score <= 0 {
			t.Fatalf("route %d malformed: %d segments, score %v", i, len(r.Route), r.Score)
		}
		if len(r.Parts) != q.Len()-1 {
			t.Fatalf("route %d has %d parts, want %d", i, len(r.Parts), q.Len()-1)
		}
	}
	if len(res.Pairs) != q.Len()-1 {
		t.Fatalf("pairs = %d, want %d", len(res.Pairs), q.Len()-1)
	}
	for i, st := range res.Pairs {
		if !st.Degraded || !st.UsedFall {
			t.Fatalf("pair %d not degraded to fallback: %+v", i, st)
		}
	}

	s := eng.Metrics()
	if got := s.Counters["queries"]; got != 1 {
		t.Fatalf("queries counter = %d, want 1", got)
	}
	if got := s.Counters[obs.CounterQueryDegraded]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CounterQueryDegraded, got)
	}
	if got := s.Counters[obs.CounterQueryCancelled]; got != 0 {
		t.Fatalf("%s = %d, want 0 (deadline expiry is not an abort)",
			obs.CounterQueryCancelled, got)
	}
	// With the deadline gone before the first pair boundary, every pair
	// records its (single) deadline hit at the reference-search stage.
	wantHits := uint64(q.Len() - 1)
	if got := s.Counters[obs.DeadlineCounterPrefix+obs.StageReferenceSearch]; got != wantHits {
		t.Fatalf("deadline.%s = %d, want %d", obs.StageReferenceSearch, got, wantHits)
	}

	// The K-GRI join saw the closed deadline too: the fold stalled at the
	// first pair boundary and finished greedily — one route, one deadline hit.
	if got := s.Counters[obs.DeadlineCounterPrefix+obs.StageKGRI]; got != 1 {
		t.Fatalf("deadline.%s = %d, want 1 (fold did not stall)", obs.StageKGRI, got)
	}
	if len(res.Routes) != 1 {
		t.Fatalf("greedy finish returned %d routes, want 1", len(res.Routes))
	}

	// Determinism for a given deadline outcome.
	res2, err := eng.InferRoutesCtx(context.Background(), q, p)
	if err != nil || !res2.Degraded || len(res2.Routes) != len(res.Routes) {
		t.Fatalf("degraded rerun diverged: err=%v routes=%d/%d",
			err, len(res2.Routes), len(res.Routes))
	}
	for i := range res.Routes {
		a, b := res.Routes[i], res2.Routes[i]
		if a.Score != b.Score || len(a.Route) != len(b.Route) {
			t.Fatalf("degraded route %d differs between runs", i)
		}
		for j := range a.Route {
			if a.Route[j] != b.Route[j] {
				t.Fatalf("degraded route %d differs at segment %d", i, j)
			}
		}
	}
}

// TestInferRoutesCtxMidFlightCancel cancels while inference is in flight and
// checks the call returns within a bounded wall time with a consistent
// outcome: either it lost the race and finished normally, or it observed the
// cancellation and reports the context error with no result.
func TestInferRoutesCtxMidFlightCancel(t *testing.T) {
	w := newWorld(t, 400, 227)
	eng := w.eng
	queries := w.queries(t, 4)
	p := DefaultParams()

	for i, q := range queries {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i) * 500 * time.Microsecond)
			cancel()
		}()
		t0 := time.Now()
		res, err := eng.InferRoutesCtx(ctx, q, p)
		if elapsed := time.Since(t0); elapsed > 10*time.Second {
			t.Fatalf("query %d: cancellation unbounded, took %v", i, elapsed)
		}
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("query %d: err = %v, want context.Canceled", i, err)
			}
			if res != nil {
				t.Fatalf("query %d: error with non-nil result", i)
			}
		} else if len(res.Routes) == 0 {
			t.Fatalf("query %d: finished before cancel but has no routes", i)
		}
		cancel()
	}
}

// TestInferPathsNetworkFreeCtxPreCancelled: the network-free extension has
// no degraded mode — any cancellation, deadline included, errors out.
func TestInferPathsNetworkFreeCtxPreCancelled(t *testing.T) {
	w := newWorld(t, 200, 233)
	eng := w.eng
	q := w.queries(t, 1)[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.InferPathsNetworkFreeCtx(ctx, q, DefaultParams(), 15); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
