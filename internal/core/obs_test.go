package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestObservedInferBatchConsistency drives two concurrent rounds of
// concurrent inference against one shared registry and checks the books balance: stage counts
// equal the work actually done, per-stage latency aggregates are internally
// consistent (no torn reads), and the serial nesting invariant holds —
// with pairWorkers=1 every sub-stage runs inside the query wall time, so
// the sub-stage sums cannot exceed the query sum.
func TestObservedInferBatchConsistency(t *testing.T) {
	w := newWorld(t, 300, 191)
	reg := obs.New()
	eng := NewEngineWithRegistry(w.eng.Source(), DefaultParams(), reg)
	queries := w.queries(t, 6)
	eng.pairWorkers = 1 // serial pairs: enables the nesting-sum invariant
	p := DefaultParams()

	const rounds = 2
	type round struct {
		res  []*Result
		errs []error
	}
	results := make([]round, rounds)
	var wg sync.WaitGroup
	for b := 0; b < rounds; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			results[b].res, results[b].errs = inferConcurrently(context.Background(), eng, queries, p, 4)
		}(b)
	}
	wg.Wait()

	wantQueries := uint64(rounds * len(queries))
	wantPairs := uint64(0)
	for _, q := range queries {
		wantPairs += uint64(q.Len() - 1)
	}
	wantPairs *= rounds

	s := eng.Metrics()
	if got := s.Counters["queries"]; got != wantQueries {
		t.Fatalf("queries counter = %d, want %d", got, wantQueries)
	}
	if got := s.Stages[obs.StageQuery].Count; got != wantQueries {
		t.Fatalf("query stage count = %d, want %d", got, wantQueries)
	}
	for _, stage := range []string{obs.StageReferenceSearch, obs.StageCandidateSearch} {
		if got := s.Stages[stage].Count; got != wantPairs {
			t.Fatalf("%s count = %d, want %d", stage, got, wantPairs)
		}
	}
	locals := s.Stages[obs.StageLocalTGI].Count + s.Stages[obs.StageLocalNNI].Count
	if locals != wantPairs {
		t.Fatalf("local stage counts = %d, want %d", locals, wantPairs)
	}
	// Both rounds ran the identical work, so K-GRI ran once per query.
	if got := s.Stages[obs.StageKGRI].Count; got != wantQueries {
		t.Fatalf("kgri count = %d, want %d", got, wantQueries)
	}
	// Aggregate consistency per stage: p50 ≤ p95 ≤ max ≤ sum, and a
	// non-empty stage observed real time.
	for name, st := range s.Stages {
		if st.Count == 0 {
			continue
		}
		if st.P50 > st.P95 || st.P95 > st.Max || st.Max > st.Sum {
			t.Fatalf("%s: inconsistent aggregates %+v", name, st)
		}
		if st.Sum <= 0 {
			t.Fatalf("%s: count %d but zero sum", name, st.Count)
		}
	}
	// Serial nesting: every instrumented sub-stage ran inside some query's
	// wall clock, so their sums cannot exceed the query sum total.
	sub := s.Stages[obs.StageReferenceSearch].Sum + s.Stages[obs.StageCandidateSearch].Sum +
		s.Stages[obs.StageLocalTGI].Sum + s.Stages[obs.StageLocalNNI].Sum +
		s.Stages[obs.StageKGRI].Sum
	if q := s.Stages[obs.StageQuery].Sum; sub > q {
		t.Fatalf("sub-stage sums %v exceed query sum %v", sub, q)
	}
	// The two concurrent rounds must also agree with each other.
	r0, r1 := results[0], results[1]
	for i := range r0.res {
		if (r0.errs[i] == nil) != (r1.errs[i] == nil) {
			t.Fatalf("query %d: rounds disagree on error", i)
		}
		if r0.errs[i] == nil && len(r0.res[i].Routes) != len(r1.res[i].Routes) {
			t.Fatalf("query %d: route counts differ", i)
		}
	}
	// NNI's redundancy is visible from outside: traces enumerated against the
	// distinct routes they converted to, at most MaxNNIPaths a pair.
	nniPairs := s.Stages[obs.StageLocalNNI].Count
	traces, hasT := s.Counters["local.nni.traces"]
	routes, hasR := s.Counters["local.nni.routes"]
	if !hasT || !hasR {
		t.Fatal("local.nni.traces / local.nni.routes missing from snapshot")
	}
	if nniPairs == 0 || traces == 0 || routes == 0 || routes > traces || traces > nniPairs*uint64(p.MaxNNIPaths) {
		t.Fatalf("local.nni: %d traces, %d routes over %d NNI pairs", traces, routes, nniPairs)
	}
	// Cache gauges are folded into the same snapshot.
	if s.Counters["cache.refsearch.hits"]+s.Counters["cache.refsearch.misses"] == 0 {
		t.Fatal("cache.refsearch gauges missing from snapshot")
	}
	// The memo's cost is visible: every entry retains at least its key, and the
	// whole stays within the byte bound. Each pair was asked once per round,
	// and a key is memoized on its second miss: every miss was either a first
	// sighting turned away (declined) or the admission of an entry.
	n, b := s.Counters["cache.refsearch.entries"], s.Counters["cache.refsearch.bytes"]
	if n == 0 || b < 100*n || b > 8<<20 {
		t.Fatalf("cache.refsearch.bytes = %d for %d entries", b, n)
	}
	if d, m := s.Counters["cache.refsearch.declined"], s.Counters["cache.refsearch.misses"]; d == 0 || m != d+n {
		t.Fatalf("cache.refsearch: %d misses, %d declined, %d entries; want misses = declined + entries", m, d, n)
	}
	if tm := s.Counters["cache.trajmatch.tables"]; tm == 0 || s.Counters["cache.trajmatch.points"] < tm ||
		s.Counters["cache.trajmatch.builds"] < tm {
		t.Fatalf("cache.trajmatch gauges inconsistent: %d tables, %d points, %d builds", tm,
			s.Counters["cache.trajmatch.points"], s.Counters["cache.trajmatch.builds"])
	}
}

// TestInferRoutesTraced checks the per-query trace a context carries into
// InferRoutesCtx: one span per stage occurrence with the right pair tags, on
// an engine with no registry at all (tracing is independent of engine
// instrumentation).
func TestInferRoutesTraced(t *testing.T) {
	w := newWorld(t, 300, 193)
	eng := w.eng
	if eng.Registry() != nil {
		t.Fatal("plain engine unexpectedly instrumented")
	}
	queries := w.queries(t, 1)
	q := queries[0]
	p := DefaultParams()
	eng.pairWorkers = 1

	tr := obs.StartTrace()
	res, err := eng.InferRoutesCtx(obs.WithTrace(context.Background(), tr), q, p)
	tr.Finish()
	if err != nil {
		t.Fatalf("traced InferRoutesCtx: %v", err)
	}
	if tr.Total() <= 0 {
		t.Fatalf("trace total = %v", tr.Total())
	}
	pairs := q.Len() - 1
	perStage := map[string]int{}
	perPair := map[int]int{}
	for _, sp := range tr.Spans() {
		perStage[sp.Stage]++
		if sp.Stage == obs.StageReferenceSearch {
			perPair[sp.Pair]++
		}
		if sp.Dur < 0 || sp.Start < 0 {
			t.Fatalf("span has negative timing: %+v", sp)
		}
	}
	if perStage[obs.StageQuery] != 1 || perStage[obs.StageKGRI] != 1 {
		t.Fatalf("query/kgri spans = %d/%d, want 1/1",
			perStage[obs.StageQuery], perStage[obs.StageKGRI])
	}
	if perStage[obs.StageReferenceSearch] != pairs || perStage[obs.StageCandidateSearch] != pairs {
		t.Fatalf("per-pair spans = %d/%d, want %d",
			perStage[obs.StageReferenceSearch], perStage[obs.StageCandidateSearch], pairs)
	}
	if perStage[obs.StageLocalTGI]+perStage[obs.StageLocalNNI] != pairs {
		t.Fatalf("local spans = %d, want %d",
			perStage[obs.StageLocalTGI]+perStage[obs.StageLocalNNI], pairs)
	}
	for i := 0; i < pairs; i++ {
		if perPair[i] != 1 {
			t.Fatalf("pair %d has %d reference_search spans", i, perPair[i])
		}
	}
	if len(res.Routes) == 0 {
		t.Fatal("no routes")
	}
	// Determinism: the traced call returns the same result as the plain one.
	plain, err := eng.InferRoutes(q, p)
	if err != nil || len(plain.Routes) != len(res.Routes) {
		t.Fatalf("traced result diverges from plain: %v", err)
	}
}

// TestMetricsUninstrumented: an engine built without a registry still
// serves a Metrics snapshot (cache gauges only, no stages), and records
// nothing anywhere.
func TestMetricsUninstrumented(t *testing.T) {
	w := newWorld(t, 200, 197)
	eng := w.eng
	queries := w.queries(t, 1)
	if _, err := eng.InferRoutes(queries[0], DefaultParams()); err != nil {
		t.Fatalf("InferRoutes: %v", err)
	}
	s := eng.Metrics()
	if len(s.Stages) != 0 {
		t.Fatalf("uninstrumented engine has stage data: %+v", s.Stages)
	}
	if s.Counters["cache.refsearch.misses"] == 0 {
		t.Fatal("cache gauges missing")
	}
	// One query asks each of its pairs once: all first sightings, none kept.
	if d, m := s.Counters["cache.refsearch.declined"], s.Counters["cache.refsearch.misses"]; d != m ||
		s.Counters["cache.refsearch.entries"] != 0 || s.Counters["cache.refsearch.bytes"] != 0 {
		t.Fatalf("one fresh query: %d misses, %d declined, %d entries, %d bytes; want every miss declined and nothing retained",
			m, d, s.Counters["cache.refsearch.entries"], s.Counters["cache.refsearch.bytes"])
	}
}
