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

// TestInferBatchMatchesSequential: queries run concurrently on one engine
// answer exactly as the same queries run one after another.
func TestInferBatchMatchesSequential(t *testing.T) {
	w := newWorld(t, 300, 131)
	var queries []*traj.Trajectory
	for i := 0; i < 6; i++ {
		qc, ok := w.ds.GenQuery(6000, 180, 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		queries = append(queries, qc.Query)
	}
	if len(queries) < 3 {
		t.Fatal("not enough queries")
	}
	seq := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := w.eng.InferRoutes(q, w.p)
		if err != nil {
			t.Fatalf("sequential inference %d: %v", i, err)
		}
		seq[i] = res
	}
	got, errs := inferConcurrently(context.Background(), w.eng, queries, w.p, 4)
	for i, res := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent %d: %v", i, errs[i])
		}
		if len(res.Routes) != len(seq[i].Routes) {
			t.Fatalf("query %d: %d routes vs %d sequential",
				i, len(res.Routes), len(seq[i].Routes))
		}
		for j := range res.Routes {
			if !res.Routes[j].Route.Equal(seq[i].Routes[j].Route) {
				t.Fatalf("query %d route %d differs between concurrent and sequential", i, j)
			}
			if res.Routes[j].Score != seq[i].Routes[j].Score {
				t.Fatalf("query %d route %d score differs", i, j)
			}
		}
	}
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
	var queries []*traj.Trajectory
	for i := 0; i < 4; i++ {
		qc, ok := w.ds.GenQuery(6000, 180, 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		queries = append(queries, qc.Query)
	}
	if len(queries) == 0 {
		t.Fatal("no queries")
	}
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

// TestInferRoutesWorkerDeterminism: the per-pair fan-out must not change
// the answer — any engine pairWorkers setting yields identical routes and
// scores.
func TestInferRoutesWorkerDeterminism(t *testing.T) {
	w := newWorld(t, 300, 173)
	qc, ok := w.ds.GenQuery(8000, 180, 15, w.cfg, w.rng)
	if !ok {
		t.Fatal("GenQuery failed")
	}
	eng := w.eng
	eng.pairWorkers = 1
	want, err := eng.InferRoutes(qc.Query, w.p)
	if err != nil {
		t.Fatalf("serial inference: %v", err)
	}
	for _, workers := range []int{2, 4, 0, -1} {
		eng.pairWorkers = workers
		got, err := eng.InferRoutes(qc.Query, w.p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Routes) != len(want.Routes) {
			t.Fatalf("workers=%d: %d routes vs %d serial", workers, len(got.Routes), len(want.Routes))
		}
		for j := range got.Routes {
			if !got.Routes[j].Route.Equal(want.Routes[j].Route) {
				t.Fatalf("workers=%d route %d differs from serial", workers, j)
			}
			if got.Routes[j].Score != want.Routes[j].Score {
				t.Fatalf("workers=%d route %d score differs", workers, j)
			}
		}
	}
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

// TestEngineCacheStats: a repeated identical query must hit the reference
// memo, build no further match tables and answer identically.
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
	_, refMisses := eng.refs.Stats()
	builds := eng.Metrics().Counters["cache.trajmatch.builds"]
	if refMisses == 0 || builds == 0 {
		t.Fatalf("expected cold-cache misses, got ref=%d trajmatch builds=%d", refMisses, builds)
	}
	// The second run's misses admit its pairs to the memo (a first sighting
	// is not retained); the third hits.
	if _, err := eng.InferRoutes(qc.Query, eng.Defaults()); err != nil {
		t.Fatalf("admitting inference: %v", err)
	}
	if refHits, _ := eng.refs.Stats(); refHits != 0 {
		t.Fatalf("%d memo hits before any pair was asked twice", refHits)
	}
	second, err := eng.InferRoutes(qc.Query, eng.Defaults())
	if err != nil {
		t.Fatalf("second inference: %v", err)
	}
	refHits, _ := eng.refs.Stats()
	if refHits == 0 {
		t.Fatal("repeat query missed the reference memo")
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
