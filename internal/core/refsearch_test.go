package core

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/traj"
)

// countingSource serves views that count their range walks: every VisitBox
// the pipeline issues is one grid walk per segment — the unit §III-A's cost
// argument counts.
type countingSource struct {
	src   hist.Source
	walks atomic.Int64
}

type countingView struct {
	hist.View
	walks *atomic.Int64
}

func (c *countingSource) Current() hist.View {
	return &countingView{View: c.src.Current(), walks: &c.walks}
}

func (v *countingView) VisitBox(box geo.BBox, fn func(geo.Point, hist.PointRef) bool) {
	v.walks.Add(1)
	v.View.VisitBox(box, fn)
}

// TestRangeWalksPerQuery: consecutive pairs share a query point and its near
// set, so a cold n-pair query walks the index n+1 times serially and at most
// n+W times over W workers (each eats a contiguous run, up the query or down
// it); a memo hit walks nothing. The second run's misses admit every pair to
// the memo, so the third is the memo-resident one.
func TestRangeWalksPerQuery(t *testing.T) {
	w, _, queries := poolWorlds(t, 60, 321)
	for _, workers := range []int{1, 2, 3, 64} {
		src := &countingSource{src: w.eng.Source()}
		eng := NewEngine(src, w.p)
		eng.pairWorkers = workers
		p := w.p
		for qi, q := range queries {
			n := int64(q.Len() - 1)
			before := src.walks.Load()
			if _, err := eng.InferRoutesCtx(context.Background(), q, p); err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, qi, err)
			}
			cold := src.walks.Load() - before
			if hi := n + min(int64(workers), n); cold < n+1 || cold > hi || workers == 1 && cold != n+1 {
				t.Fatalf("workers=%d query %d: %d range walks for %d pairs, want %d..%d", workers, qi, cold, n, n+1, hi)
			}
			if _, err := eng.InferRoutesCtx(context.Background(), q, p); err != nil {
				t.Fatal(err)
			}
			admitting := src.walks.Load() - before - cold
			if _, err := eng.InferRoutesCtx(context.Background(), q, p); err != nil {
				t.Fatal(err)
			}
			if warm := src.walks.Load() - before - cold - admitting; warm != 0 {
				t.Fatalf("workers=%d query %d: %d range walks on a memo-resident query", workers, qi, warm)
			}
		}
	}
}

// TestSessionCarriesNearSet: a session on a memo-cold engine walks the index
// at most once per pushed point — the previous point's near set is carried in
// the session, not in the scratch it borrows per push — and still finalizes
// byte-identically to the offline pipeline. The second half of each trace is
// pushed after the live store published new epochs (new trips right on the
// query's path): the session pinned its snapshot, so the carried set stays
// valid and the answer is the pinned generation's.
func TestSessionCarriesNearSet(t *testing.T) {
	ds, queries := liveWorld(150, 41)
	st := hist.NewStore(ds.City.Graph, ds.Archive[:100], hist.StoreConfig{CompactSegments: 1 << 30})
	st.IngestTrips(ds.Archive[100:]...)
	p := DefaultParams()
	for qi, q := range queries {
		frozen := st.Snapshot()
		offline := NewEngine(frozen, p)
		want, err := offline.InferRoutesCtx(context.Background(), q, p)
		if err != nil {
			t.Fatalf("query %d offline: %v", qi, err)
		}
		src := &countingSource{src: st}
		s := NewEngine(src, p).NewSession(p, SessionConfig{})
		for i, pt := range q.Points {
			if i == q.Len()/2 {
				onPath := &traj.Trajectory{ID: "late", Points: slices.Clone(q.Points)}
				st.IngestTrips(onPath)
				st.IngestTrips(ds.Archive[:5]...)
			}
			if _, err := s.Push(context.Background(), pt); err != nil {
				t.Fatalf("query %d push %d: %v", qi, i, err)
			}
		}
		if got, k := src.walks.Load(), int64(q.Len()); got > k || got < k-1 {
			t.Fatalf("query %d: %d range walks for %d pushes, want at most one per push", qi, got, k)
		}
		if s.Epoch() == st.Current().Epoch() {
			t.Fatal("the store did not publish past the session's epoch")
		}
		got, err := s.Finalize()
		if err != nil {
			t.Fatalf("query %d finalize: %v", qi, err)
		}
		if encodeFull(frozen, got) != encodeFull(frozen, want) {
			t.Fatalf("query %d: session with a carried near set differs from offline:\n%s\nvs\n%s",
				qi, encodeFull(frozen, got), encodeFull(frozen, want))
		}
	}
}

// TestMemoizedRunsSurviveScratchReuse: what the reference-search memo retains
// is cloned out of the searcher scratch at exact size. Later searches on the
// same recycled scratch — other queries, other parameters — must leave every
// memoized run list bit-stable and equal to a fresh search.
func TestMemoizedRunsSurviveScratchReuse(t *testing.T) {
	w, _, queries := poolWorlds(t, 60, 987)
	v, ctx := w.eng.src.Current(), context.Background()
	sp := hist.SearchParams{Phi: w.p.Phi, SpliceEps: w.p.SpliceEps, SpliceMinSimple: w.p.SpliceMinSimple}
	q := queries[0]
	for i := 0; i < 2; i++ { // the second run's misses admit the pairs
		if _, err := w.eng.InferRoutes(q, w.p); err != nil {
			t.Fatal(err)
		}
	}
	var memo, before [][]hist.Reference
	hits, _ := w.eng.refs.Stats()
	for i := 0; i+1 < q.Len(); i++ {
		refs := w.eng.refs.ReferencesOn(ctx, v, q.Points[i], q.Points[i+1], sp, new(hist.Searcher), nil)
		if len(refs) != cap(refs) {
			t.Fatalf("pair %d: memoized run list has len %d cap %d, want exact size", i, len(refs), cap(refs))
		}
		memo, before = append(memo, refs), append(before, slices.Clone(refs))
	}
	if h, _ := w.eng.refs.Stats(); h-hits != uint64(len(memo)) {
		t.Fatalf("read %d memo entries with %d hits", len(memo), h-hits)
	}
	wide := w.p
	wide.Phi, wide.SpliceMinSimple = 2*w.p.Phi, 0
	for round := 0; round < 2; round++ {
		inferConcurrently(ctx, w.eng, queries, w.p, 4)
		inferConcurrently(ctx, w.eng, queries, wide, 1)
	}
	for i := range memo {
		fresh := hist.References(v, q.Points[i], q.Points[i+1], sp)
		if !slices.Equal(memo[i], before[i]) || !slices.Equal(memo[i], fresh) {
			t.Fatalf("pair %d: memoized run list changed under scratch reuse", i)
		}
	}
}
