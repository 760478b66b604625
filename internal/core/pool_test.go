package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/traj"
)

// poolWorlds builds a pooled engine (the default) and a pool-disabled twin
// over the same archive, plus a batch of evaluation queries. Pooling is a
// pure optimization — the twins must be byte-identical on every output.
func poolWorlds(t testing.TB, trips int, seed int64) (*world, *Engine, []*traj.Trajectory) {
	t.Helper()
	w := newWorld(t, trips, seed)
	unpooled := NewEngine(w.eng.Source(), DefaultParams())
	unpooled.noPool = true
	var queries []*traj.Trajectory
	for tries := 0; len(queries) < 4 && tries < 200; tries++ {
		qc, ok := w.ds.GenQuery(6000, 180, 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		queries = append(queries, qc.Query)
	}
	if len(queries) == 0 {
		t.Fatal("no evaluation queries generated")
	}
	return w, unpooled, queries
}

// TestPooledMatchesUnpooled: for fixed seeds, the pooled engine's InferRoutes
// output is byte-identical (routes, exact score bits, reference ids, stats)
// to the pool-disabled engine's, at both serial and parallel pair workers.
func TestPooledMatchesUnpooled(t *testing.T) {
	w, unpooled, queries := poolWorlds(t, 60, 321)
	v := w.eng.src.Current()
	for _, workers := range []int{1, 4} {
		p := w.p
		w.eng.pairWorkers, unpooled.pairWorkers = workers, workers
		for qi, q := range queries {
			want, err1 := unpooled.InferRoutes(q, p)
			got, err2 := w.eng.InferRoutes(q, p)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("workers=%d query %d: errors diverge: %v vs %v", workers, qi, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if encodeFull(v, got) != encodeFull(v, want) {
				t.Fatalf("workers=%d query %d: pooled output differs from unpooled:\n%s\nvs\n%s",
					workers, qi, encodeFull(v, got), encodeFull(v, want))
			}
		}
	}
}

// TestQuickPooledMatchesUnpooled drives the equivalence with quick.Check
// inputs: arbitrary seeds generate fresh queries against a shared world and
// the two engines must agree exactly.
func TestQuickPooledMatchesUnpooled(t *testing.T) {
	w, unpooled, _ := poolWorlds(t, 50, 77)
	v := w.eng.src.Current()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		qc, ok := w.ds.GenQuery(5000, 180, 15, w.cfg, rng)
		if !ok {
			return true
		}
		want, err1 := unpooled.InferRoutes(qc.Query, w.p)
		got, err2 := w.eng.InferRoutes(qc.Query, w.p)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return encodeFull(v, got) == encodeFull(v, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPooledConcurrentBatch is the -race stress case: concurrent
// inferences share the scratch pools across goroutines and rounds,
// and every result must still match the pool-disabled engine byte for byte.
func TestPooledConcurrentBatch(t *testing.T) {
	w, unpooled, queries := poolWorlds(t, 60, 654)
	v := w.eng.src.Current()
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := unpooled.InferRoutes(q, w.p)
		if err != nil {
			t.Fatalf("unpooled query %d: %v", i, err)
		}
		want[i] = encodeFull(v, res)
	}
	for round := 0; round < 3; round++ {
		out, errs := inferConcurrently(context.Background(), w.eng, queries, w.p, 4)
		for i, res := range out {
			if errs[i] != nil {
				t.Fatalf("round %d query %d: %v", round, i, errs[i])
			}
			if got := encodeFull(v, res); got != want[i] {
				t.Fatalf("round %d query %d: pooled concurrent output differs", round, i)
			}
		}
	}
}

// TestPublishedResultSurvivesScratchReuse is the aliasing leak check: a
// Result published by one inference must be bit-stable while later
// inferences recycle the same scratch arenas. Any pooled buffer leaking into
// Routes/Locals/Refs would be overwritten here and change the encoding.
func TestPublishedResultSurvivesScratchReuse(t *testing.T) {
	w, _, queries := poolWorlds(t, 60, 987)
	v := w.eng.src.Current()
	first, err := w.eng.InferRoutes(queries[0], w.p)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	snap := encodeFull(v, first)
	for round := 0; round < 2; round++ {
		inferConcurrently(context.Background(), w.eng, queries, w.p, 4)
	}
	if got := encodeFull(v, first); got != snap {
		t.Fatalf("published Result mutated by later inferences (scratch aliasing):\nbefore:\n%s\nafter:\n%s", snap, got)
	}

	// The same, pair by pair and method by method, on one arena: what an NNI
	// pair publishes must not alias the projector's route buffer, nor a TGI
	// pair's routes sc.routeBuf — both are overwritten by the very next route
	// converted, kept or not.
	for _, m := range []Method{MethodNNI, MethodTGI} {
		p := w.p
		p.Method = m
		x := w.eng.newExec(context.Background(), p, v)
		x.sc = newPairScratch()
		q := queries[0]
		var kept [][]LocalRoute
		var want []string
		for round := 0; round < 2; round++ {
			for i := 0; i+1 < q.Len(); i++ {
				locals, st, _ := x.pairStage(i, q.Points[i], q.Points[i+1])
				if round == 1 {
					continue // second pass only churns the arena
				}
				if st.Method != m {
					t.Fatalf("pair %d ran %v, want %v", i, st.Method, m)
				}
				kept = append(kept, locals)
				want = append(want, fmt.Sprint(locals))
			}
		}
		routes := 0
		for i, locals := range kept {
			routes += len(locals)
			if got := fmt.Sprint(locals); got != want[i] {
				t.Fatalf("%v pair %d: published local routes mutated by later pairs on the same arena:\nbefore %s\nafter  %s", m, i, want[i], got)
			}
			for _, lr := range locals {
				if len(lr.Route) != cap(lr.Route) {
					t.Fatalf("%v pair %d: published route has capacity %d for %d edges; routeSeen copies at exact size", m, i, cap(lr.Route), len(lr.Route))
				}
			}
		}
		if routes == 0 {
			t.Fatalf("%v published no local route on the test query", m)
		}
	}
}
