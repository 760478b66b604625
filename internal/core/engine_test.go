package core

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/traj"
)

// inferConcurrently runs eng.InferRoutesCtx over queries from workers
// goroutines, each taking the next unclaimed query, and returns the results
// and errors in input order: the concurrent load the -race tests put on one
// engine.
func inferConcurrently(ctx context.Context, eng *Engine, queries []*traj.Trajectory, p Params, workers int) ([]*Result, []error) {
	res := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(queries); i = int(next.Add(1) - 1) {
				res[i], errs[i] = eng.InferRoutesCtx(ctx, queries[i], p)
			}
		}()
	}
	wg.Wait()
	return res, errs
}

// TestConcurrentBatchAndPairLocalRoutes is the regression test for the
// PairLocalRoutes data race: the pre-Engine implementation saved, mutated
// and restored the shared Params.Method around each call, so running it
// while concurrent inferences used the same System raced (caught by -race).
// Both entry points now carry per-call Params copies; this must stay -race
// clean.
func TestConcurrentBatchAndPairLocalRoutes(t *testing.T) {
	w := newWorld(t, 300, 171)
	qi, qj := pickPair(t, w, 180, 1)
	queries := w.queries(t, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inferConcurrently(context.Background(), w.eng, queries, w.p, 2)
	}()
	for i := 0; i < 10; i++ {
		m := MethodTGI
		if i%2 == 1 {
			m = MethodNNI
		}
		locals, st := w.eng.PairLocalRoutes(qi, qj, m, w.p)
		if st.Method != m && !st.UsedFall && len(locals) > 0 {
			t.Fatalf("iteration %d: asked for %v, stats report %v", i, m, st.Method)
		}
	}
	wg.Wait()
}

func TestPairWorkersResolution(t *testing.T) {
	x := exec{eng: &Engine{}}
	if got, want := x.pairWorkers(100), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("pairWorkers=0 over 100 pairs = %d, want GOMAXPROCS = %d", got, want)
	}
	x.eng.pairWorkers = 8
	if got := x.pairWorkers(3); got != 3 {
		t.Fatalf("worker bound not capped at pair count: %d", got)
	}
	x.eng.pairWorkers = 2
	if got := x.pairWorkers(100); got != 2 {
		t.Fatalf("explicit pairWorkers ignored: %d", got)
	}
}

// TestEngineDefaultsFrozen: Defaults hands out a copy; mutating it cannot
// reach into the engine.
func TestEngineDefaultsFrozen(t *testing.T) {
	w := newWorld(t, 100, 177)
	eng := w.eng
	d := eng.Defaults()
	d.K3 = 99
	if eng.Defaults().K3 == 99 {
		t.Fatal("Defaults returned a reference into the engine")
	}
}

// TestEngineCacheStats: a repeated identical query must hit the query memo,
// build no further match tables and answer identically, Pairs stats and
// local route sets included.
func TestEngineCacheStats(t *testing.T) {
	w := newWorld(t, 300, 179)
	qc, ok := w.ds.GenQuery(6000, 180, 15, w.cfg, w.rng)
	if !ok {
		t.Fatal("GenQuery failed")
	}
	eng := w.eng
	first, err := eng.InferRoutes(qc.Query, eng.Defaults())
	if err != nil {
		t.Fatalf("first inference: %v", err)
	}
	refMisses := eng.memo.misses.Load()
	builds := eng.Metrics().Counters["cache.trajmatch.builds"]
	if refMisses == 0 || builds == 0 {
		t.Fatalf("expected cold-cache misses, got ref=%d trajmatch builds=%d", refMisses, builds)
	}
	// The second run's miss admits the query to the memo (a first sighting
	// is not retained); the third hits.
	if _, err := eng.InferRoutes(qc.Query, eng.Defaults()); err != nil {
		t.Fatalf("admitting inference: %v", err)
	}
	if refHits := eng.memo.hits.Load(); refHits != 0 {
		t.Fatalf("%d memo hits before the query was asked twice", refHits)
	}
	second, err := eng.InferRoutes(qc.Query, eng.Defaults())
	if err != nil {
		t.Fatalf("second inference: %v", err)
	}
	if refHits := eng.memo.hits.Load(); refHits != 1 {
		t.Fatalf("repeat query hit the query memo %d times, want once", refHits)
	}
	// Pair workers may race a first touch (builds > tables), never a later one.
	if c := eng.Metrics().Counters; c["cache.trajmatch.builds"] != builds ||
		c["cache.trajmatch.tables"] == 0 || c["cache.trajmatch.tables"] > builds {
		t.Fatalf("repeat query rebuilt match tables: builds %d -> %d, tables %d",
			builds, c["cache.trajmatch.builds"], c["cache.trajmatch.tables"])
	}
	if len(first.Routes) != len(second.Routes) {
		t.Fatalf("cached run changed the answer: %d vs %d routes", len(second.Routes), len(first.Routes))
	}
	for j := range first.Routes {
		if !first.Routes[j].Route.Equal(second.Routes[j].Route) || first.Routes[j].Score != second.Routes[j].Score {
			t.Fatalf("cached run changed route %d", j)
		}
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("the memo-served run differs from the first:\n%+v\nvs\n%+v", second, first)
	}
}

// TestEngineSurface pins *Engine's exported method set: each operation has
// one way in (plus InferRoutes, the one non-ctx convenience). A new method
// must be added here on purpose — a second spelling of an existing
// operation should fail this test, not slip through review.
func TestEngineSurface(t *testing.T) {
	want := []string{
		// inference
		"InferPathsNetworkFreeCtx", "InferRoutes", "InferRoutesCtx",
		"NewSession", "PairLocalRoutes",
		// accessors and observability
		"Defaults", "Graph", "Metrics", "Registry", "Source",
	}
	sort.Strings(want)
	typ := reflect.TypeOf(&Engine{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name) // exported only, sorted by name
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Engine exports %v, want %v", got, want)
	}
}
