package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/traj"
)

// ask answers q on eng as /infer does: through the query memo. An error
// answers nil, which no comparison with an answer passes.
func ask(eng *Engine, p Params, q *traj.Trajectory) *Result {
	res, err := eng.InferRoutes(q, p)
	if err != nil {
		return nil
	}
	return res
}

// admitted asks the memo twice, so that the query is memoized — a first
// sighting is answered but not retained — and returns the second answer.
func admitted(eng *Engine, p Params, q *traj.Trajectory) *Result {
	ask(eng, p, q)
	return ask(eng, p, q)
}

// solveFresh computes q's answer on v past any memo.
func solveFresh(t *testing.T, eng *Engine, v hist.View, p Params, q *traj.Trajectory) *Result {
	t.Helper()
	x := eng.newExec(context.Background(), p, v)
	res, err := x.inferRoutes(eng.newSession(p, SessionConfig{}, v), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cloneResult deep-copies res, so that a later write into the original's
// slices shows against the copy.
func cloneResult(res *Result) *Result {
	c := &Result{Routes: slices.Clone(res.Routes), Pairs: slices.Clone(res.Pairs), Locals: slices.Clone(res.Locals), Degraded: res.Degraded}
	for i, r := range c.Routes {
		c.Routes[i].Route, c.Routes[i].Parts = slices.Clone(r.Route), slices.Clone(r.Parts)
	}
	for i, set := range c.Locals {
		c.Locals[i] = slices.Clone(set)
		for j, l := range set {
			c.Locals[i][j].Route, c.Locals[i][j].Refs = slices.Clone(l.Route), slices.Clone(l.Refs)
		}
	}
	return c
}

// exactSize reports whether every slice res holds has len == cap, so that
// an append to any of them reallocates.
func exactSize(res *Result) bool {
	full := func(n, c int) bool { return n == c }
	ok := full(len(res.Routes), cap(res.Routes)) && full(len(res.Pairs), cap(res.Pairs)) && full(len(res.Locals), cap(res.Locals))
	for _, r := range res.Routes {
		ok = ok && full(len(r.Route), cap(r.Route)) && full(len(r.Parts), cap(r.Parts))
	}
	for _, set := range res.Locals {
		ok = ok && full(len(set), cap(set))
		for _, l := range set {
			ok = ok && full(len(l.Route), cap(l.Route)) && full(len(l.Refs), cap(l.Refs))
		}
	}
	return ok
}

// memoStats is the memo's counters and size at one moment.
type memoStats struct{ hits, misses, declined, entries, bytes int }

func statsOf(c *queryMemo) memoStats {
	n, b := c.size()
	return memoStats{int(c.hits.Load()), int(c.misses.Load()), int(c.declined.Load()), n, b}
}

// memoQuery is a memo test's engine, parameters and two-point query: the
// pair of a drawn query with the most references, so its answer is
// reference-backed and one query costs one pair.
type memoQuery struct {
	w *world
	v hist.View
	p Params
	q *traj.Trajectory
}

func newMemoQuery(t *testing.T) memoQuery {
	t.Helper()
	w := newWorld(t, 60, 461)
	q := w.queries(t, 1)[0]
	v := w.eng.src.Current()
	best, most := 0, -1
	for i := 0; i+1 < q.Len(); i++ {
		if _, st := w.eng.PairLocalRoutes(q.Points[i], q.Points[i+1], w.p.Method, w.p); st.Refs > most {
			best, most = i, st.Refs
		}
	}
	if most < 1 {
		t.Fatal("no pair of the query has references")
	}
	return memoQuery{w: w, v: v, p: w.p, q: two(q.Points[best], q.Points[best+1])}
}

// two is the query ⟨qi, qj⟩.
func two(qi, qj traj.GPSPoint) *traj.Trajectory {
	return &traj.Trajectory{ID: "pair", Points: []traj.GPSPoint{qi, qj}}
}

// jitter moves q's first point by i centimetres east: a distinct key whose
// answer is that of a query a hair away.
func jitter(q *traj.Trajectory, i int) *traj.Trajectory {
	pts := slices.Clone(q.Points)
	pts[0].Pt = geo.Pt(pts[0].Pt.X+float64(i)*0.01, pts[0].Pt.Y)
	return &traj.Trajectory{ID: q.ID, Points: pts}
}

// TestQueryMemoMatchesDirect: whether declined, admitted or hit, the memo
// answers exactly what the query's computation does.
func TestQueryMemoMatchesDirect(t *testing.T) {
	mq := newMemoQuery(t)
	eng := mq.w.eng
	want := solveFresh(t, eng, mq.v, mq.p, mq.q)
	if want.Pairs[0].Refs == 0 {
		t.Fatal("fixture query has no reference-backed routes")
	}
	for call := 0; call < 3; call++ {
		if got := ask(eng, mq.p, mq.q); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: memo answered %+v, direct %+v", call, got, want)
		}
	}
	if s := statsOf(eng.memo); s.hits != 1 || s.misses != 2 || s.declined != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 declined", s)
	}
}

// TestQueryMemoAdmitsOnSecondMiss: a query asked three times misses, misses
// again and is memoized, then hits with a shallow copy of the Result the
// memo retained: its own *Result, the entry's slices, every one at exact
// size, and none shared with the admitting miss's answer.
func TestQueryMemoAdmitsOnSecondMiss(t *testing.T) {
	mq := newMemoQuery(t)
	c := mq.w.eng.memo
	ask(mq.w.eng, mq.p, mq.q)
	if s := statsOf(c); s != (memoStats{0, 1, 1, 0, 0}) {
		t.Fatalf("after a first sighting: %+v", s)
	}
	second := ask(mq.w.eng, mq.p, mq.q)
	entry := c.m[newQueryKey(mq.v.Epoch(), mq.p, mq.q.Points)]
	if s := statsOf(c); entry == nil || s != (memoStats{0, 2, 1, 1, entry.bytes}) {
		t.Fatalf("after a second sighting: %+v, want one entry", s)
	}
	third := ask(mq.w.eng, mq.p, mq.q)
	if s := statsOf(c); s.hits != 1 || s.misses != 2 {
		t.Fatalf("third ask: %+v, want 1 hit / 2 misses", s)
	}
	if third == &entry.res || &third.Routes[0] != &entry.res.Routes[0] || &third.Locals[0][0] != &entry.res.Locals[0][0] ||
		&second.Routes[0] == &entry.res.Routes[0] || &second.Locals[0][0].Route[0] == &entry.res.Locals[0][0].Route[0] {
		t.Fatal("the hit must be a shallow copy of the entry, which shares nothing with the admitting answer")
	}
	if !exactSize(third) {
		t.Fatal("the entry retains slices with spare capacity")
	}
}

// TestQueryMemoSkipsCancelledQuery: a query whose context is cancelled, or
// whose deadline expired so that it degraded, is neither memoized nor
// counted as a sighting, so a later complete query still needs two misses
// to be admitted.
func TestQueryMemoSkipsCancelledQuery(t *testing.T) {
	mq := newMemoQuery(t)
	c := mq.w.eng.memo
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := mq.w.eng.InferRoutesCtx(cancelled, mq.q, mq.p); err == nil {
			t.Fatal("a cancelled query answered")
		}
		if res, err := mq.w.eng.InferRoutesCtx(expired, mq.q, mq.p); err != nil || !res.Degraded {
			t.Fatalf("a query past its deadline answered err %v, want it degraded", err)
		}
	}
	if s := statsOf(c); s.entries != 0 || s.declined != 0 {
		t.Fatalf("after cancelled and degraded queries: %+v, want no entry and none declined", s)
	}
	ask(mq.w.eng, mq.p, mq.q)
	if s := statsOf(c); s.entries != 0 || s.declined != 1 {
		t.Fatalf("first complete query: %+v, want no entry and 1 declined", s)
	}
	ask(mq.w.eng, mq.p, mq.q)
	if s := statsOf(c); s.entries != 1 {
		t.Fatalf("second complete query: %+v, want 1 entry", s)
	}
}

// TestQueryMemoNeverServesDegraded: the key drops Deadline, so a degraded
// answer, once memoized, would be served to a query with no deadline. A
// query run three times under a 1 ns budget degrades every time; the same
// query with no budget then answers exactly as a fresh engine does.
func TestQueryMemoNeverServesDegraded(t *testing.T) {
	w := newWorld(t, 80, 463)
	q := w.queries(t, 1)[0]
	rushed := w.p
	rushed.Deadline = time.Nanosecond
	for i := 0; i < 3; i++ {
		res, err := w.eng.InferRoutes(q, rushed)
		if err != nil || !res.Degraded {
			t.Fatalf("run %d under a 1 ns deadline: err %v, want a degraded answer", i, err)
		}
	}
	if s := statsOf(w.eng.memo); s.entries != 0 {
		t.Fatalf("degraded runs left %+v in the memo", s)
	}
	v := w.eng.src.Current()
	got, err := w.eng.InferRoutes(q, w.p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(w.eng.src, w.p).InferRoutes(q, w.p)
	if err != nil {
		t.Fatal(err)
	}
	if encodeFull(v, got) != encodeFull(v, want) || got.Degraded {
		t.Fatalf("after degraded runs the engine answers\n%s\na fresh one\n%s", encodeFull(v, got), encodeFull(v, want))
	}
}

// TestQueryMemoFreshKeysRetainNothing: never-repeated queries — fresh
// traffic — leave the memo empty, each one counted as declined.
func TestQueryMemoFreshKeysRetainNothing(t *testing.T) {
	mq := newMemoQuery(t)
	c := mq.w.eng.memo
	const keys = 10000
	found := 0
	for i := 0; i < keys; i++ {
		if res := ask(mq.w.eng, mq.p, jitter(mq.q, i)); res != nil {
			found += res.Pairs[0].Refs
		}
	}
	if found == 0 {
		t.Fatal("no query found references: the memo was never offered anything")
	}
	if s := statsOf(c); s != (memoStats{0, keys, keys, 0, 0}) {
		t.Fatalf("%d distinct keys: %+v, want every one a declined miss and nothing retained", keys, s)
	}
}

// TestQueryMemoKeysOnParams: the parameters are part of the key — a change
// to any field but Deadline misses, a change to Deadline alone hits — and so
// is the query's direction.
func TestQueryMemoKeysOnParams(t *testing.T) {
	mq := newMemoQuery(t)
	eng := mq.w.eng
	admitted(eng, mq.p, mq.q)
	typ := reflect.TypeOf(mq.p)
	for f := 0; f < typ.NumField(); f++ {
		p := mq.p
		fv := reflect.ValueOf(&p).Elem().Field(f)
		switch fv.Kind() {
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 1)
		case reflect.Int, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		default:
			t.Fatalf("Params.%s: no perturbation for kind %v", typ.Field(f).Name, fv.Kind())
		}
		hits := eng.memo.hits.Load()
		ask(eng, p, mq.q)
		hit := eng.memo.hits.Load() > hits
		if name := typ.Field(f).Name; hit != (name == "Deadline") {
			t.Errorf("Params.%s changed: hit = %v", name, hit)
		}
	}
	// The query travelled the other way is a distinct key.
	qi, qj := mq.q.Points[0], mq.q.Points[1]
	reversed := two(traj.GPSPoint{Pt: qj.Pt, T: qi.T}, traj.GPSPoint{Pt: qi.Pt, T: qj.T})
	hits := eng.memo.hits.Load()
	admitted(eng, mq.p, reversed)
	if eng.memo.hits.Load() != hits {
		t.Fatal("reversed query hit the forward entry")
	}
	wide := mq.p
	wide.Phi *= 2
	admitted(eng, wide, mq.q)
	if n, _ := eng.memo.size(); n != 3 {
		t.Fatalf("memo entries = %d, want 3", n)
	}
}

// TestQueryMemoKeysOnPoints: every point is part of the key — a query
// differing from a memoized one in one point's position or timestamp, or by
// a point fewer, misses and answers as its own computation does.
func TestQueryMemoKeysOnPoints(t *testing.T) {
	w := newWorld(t, 80, 471)
	q := w.queries(t, 1)[0]
	v := w.eng.src.Current()
	admitted(w.eng, w.p, q)
	variants := []*traj.Trajectory{{ID: q.ID, Points: q.Points[:q.Len()-1]}}
	for i := range q.Points {
		moved, later := slices.Clone(q.Points), slices.Clone(q.Points)
		moved[i].Pt = geo.Pt(moved[i].Pt.X, moved[i].Pt.Y+0.01)
		later[i].T++
		variants = append(variants, &traj.Trajectory{ID: q.ID, Points: moved}, &traj.Trajectory{ID: q.ID, Points: later})
	}
	for n, vq := range variants {
		hits := w.eng.memo.hits.Load()
		got, err := w.eng.InferRoutes(vq, w.p)
		if w.eng.memo.hits.Load() != hits {
			t.Fatalf("variant %d hit the memoized query", n)
		}
		if err == nil && !reflect.DeepEqual(got, solveFresh(t, w.eng, v, w.p, vq)) {
			t.Fatalf("variant %d answered unlike its own computation", n)
		}
	}
	if n, _ := w.eng.memo.size(); n != 1 {
		t.Fatalf("memo entries = %d, want the one admitted query", n)
	}
}

// TestQueryMemoHitIsACopy: a caller owns the *Result it is handed. Writing
// into the admitting answer, or reassigning the fields of a hit and
// appending to each of its slices, leaves the next hit as it was.
func TestQueryMemoHitIsACopy(t *testing.T) {
	w := newWorld(t, 80, 473)
	q := w.queries(t, 1)[0]
	second := admitted(w.eng, w.p, q)
	want := cloneResult(second)
	second.Routes[0].Route[0], second.Routes[0].Parts[0], second.Pairs[0].Refs = -1, -1, -1
	second.Locals[0][0].Route[0], second.Locals[0][0].Refs[0] = -1, -1
	hit := ask(w.eng, w.p, q)
	if !reflect.DeepEqual(hit, want) {
		t.Fatal("writing into the admitting answer changed the memoized one")
	}
	hit.Routes = append(hit.Routes, GlobalRoute{Score: -1})
	hit.Pairs = append(hit.Pairs, PairStats{Refs: -1})
	hit.Locals = append(hit.Locals, nil)
	hit.Locals[0] = append(hit.Locals[0], LocalRoute{Popularity: -1})
	hit.Routes[0].Route = append(hit.Routes[0].Route, -1)
	hit.Routes[0].Parts = append(hit.Routes[0].Parts, -1)
	hit.Locals[0][0].Route = append(hit.Locals[0][0].Route, -1)
	hit.Locals[0][0].Refs = append(hit.Locals[0][0].Refs, -1)
	hit.Degraded = true
	if again := ask(w.eng, w.p, q); !reflect.DeepEqual(again, want) {
		t.Fatal("reassigning and appending to a hit changed the next one")
	}
	if s := statsOf(w.eng.memo); s.hits != 2 {
		t.Fatalf("stats %+v, want 2 hits", s)
	}
}

// TestQueryMemoConcurrent: goroutines asking one query under eight
// parameter sets through a memo bounded at a few entries, so that it
// resets, always get the computed answer.
func TestQueryMemoConcurrent(t *testing.T) {
	mq := newMemoQuery(t)
	eng := mq.w.eng
	params := make([]Params, 8)
	want := make([]*Result, len(params))
	for i := range params {
		params[i] = mq.p
		params[i].Phi = 300 + float64(i)*50
		want[i] = solveFresh(t, eng, mq.v, params[i], mq.q)
	}
	k := newQueryKey(mq.v.Epoch(), params[0], mq.q.Points)
	eng.memo = newQueryMemo(4 * retain(&k, want[0]).bytes) // tiny bound: exercise resets
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (seed + i) % len(params)
				if got := ask(eng, params[k], mq.q); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("φ = %v: memo answered %+v, direct %+v", params[k].Phi, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s := statsOf(eng.memo); s.hits == 0 || s.hits+s.misses != 8*200 {
		t.Fatalf("stats %+v for %d asks, want some hits", s, 8*200)
	}
}

// steeredSource is a Store whose Current a test can steer: stale, when set,
// is what the next Current call alone returns — as if a newer epoch were
// published right after the engine looked its snapshot up — and pinned is
// what every call returns while it is set.
type steeredSource struct {
	hist.Source
	mu            sync.Mutex
	stale, pinned hist.View
}

func (s *steeredSource) Current() hist.View {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.stale; v != nil {
		s.stale = nil
		return v
	}
	if s.pinned != nil {
		return s.pinned
	}
	return s.Source.Current()
}

func (s *steeredSource) steer(stale, pinned hist.View) {
	s.mu.Lock()
	s.stale, s.pinned = stale, pinned
	s.mu.Unlock()
}

// TestQueryMemoStaleEpochNotMemoized: a reader still pinned to an old
// snapshot computes on miss but must not repopulate the memo with entries
// no current reader can hit.
func TestQueryMemoStaleEpochNotMemoized(t *testing.T) {
	mq := newMemoQuery(t)
	arch := mq.w.ds.Archive
	st := hist.NewStore(mq.w.g, arch[:len(arch)/2], hist.StoreConfig{})
	st.IngestTrips(arch[len(arch)/2 : len(arch)*3/4]...)
	old := st.Current() // pin epoch 1
	st.IngestTrips(arch[len(arch)*3/4:]...)
	src := &steeredSource{Source: st}
	eng := NewEngine(src, mq.p)
	admitted(eng, mq.p, mq.q) // observe epoch 2
	if n, _ := eng.memo.size(); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
	want := solveFresh(t, eng, old, mq.p, mq.q)
	src.steer(nil, old)
	if got := ask(eng, mq.p, mq.q); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned-view answer %+v, want %+v", got, want)
	}
	if s := statsOf(eng.memo); s.entries != 1 || s.misses != 3 {
		t.Fatalf("after a stale-epoch miss: %+v, want 1 entry and 3 misses", s)
	}
	// Repeating the pinned-view query — a second sighting, which a current
	// key would be admitted on — misses again (never memoized) but still
	// answers correctly.
	if again := ask(eng, mq.p, mq.q); !reflect.DeepEqual(again, want) {
		t.Fatalf("repeat pinned-view answer %+v, want %+v", again, want)
	}
	if s := statsOf(eng.memo); s.hits != 0 || s.misses != 4 || s.entries != 1 {
		t.Fatalf("stats = %+v, want 0 hits / 4 misses with 1 entry", s)
	}
}

// onPath is an archive trip along q itself: ingested, it adds a reference to
// each of q's pairs.
func onPath(q *traj.Trajectory) *traj.Trajectory {
	return &traj.Trajectory{ID: "on-path", Points: slices.Clone(q.Points)}
}

// TestQueryMemoIngestBetweenLookupAndCompute: a query that looked its
// snapshot up just before an ingest published a newer one answers on the
// snapshot it looked up, and its answer is never memoized under the newer
// epoch: the next query, at the newer epoch, answers as that generation
// does.
func TestQueryMemoIngestBetweenLookupAndCompute(t *testing.T) {
	mq := newMemoQuery(t)
	st := hist.NewStore(mq.w.g, mq.w.ds.Archive, hist.StoreConfig{})
	src := &steeredSource{Source: st}
	eng := NewEngine(src, mq.p)
	old := st.Current()
	st.IngestTrips(onPath(mq.q))
	ask(eng, mq.p, mq.q) // the newer epoch's first sighting
	wantOld, wantNew := solveFresh(t, eng, old, mq.p, mq.q), solveFresh(t, eng, st.Current(), mq.p, mq.q)
	if wantOld.Pairs[0].Refs == wantNew.Pairs[0].Refs {
		t.Fatal("the ingested trip changed nothing: the test cannot tell the epochs apart")
	}
	src.steer(old, nil)
	if got := ask(eng, mq.p, mq.q); !reflect.DeepEqual(got, wantOld) {
		t.Fatalf("the query answered %+v, want the answer on the snapshot it looked up", got)
	}
	for i := 0; i < 2; i++ {
		if got := ask(eng, mq.p, mq.q); !reflect.DeepEqual(got, wantNew) {
			t.Fatalf("ask %d at the newer epoch answered %+v, want %+v", i, got, wantNew)
		}
	}
	if s := statsOf(eng.memo); s.hits != 1 || s.entries != 1 {
		t.Fatalf("stats = %+v, want the newer epoch's answer admitted and hit once", s)
	}
}

// TestQueryMemoResetCounter drives the memo past a tiny byte bound and
// checks the thrash signal: resets climbs while the retained bytes stay
// within the bound and are exactly what the entries retain.
func TestQueryMemoResetCounter(t *testing.T) {
	mq := newMemoQuery(t)
	eng := mq.w.eng
	k := newQueryKey(mq.v.Epoch(), mq.p, mq.q.Points)
	max := 4 * retain(&k, solveFresh(t, eng, mq.v, mq.p, mq.q)).bytes
	eng.memo = newQueryMemo(max)
	for i := 0; i < 40; i++ {
		admitted(eng, mq.p, jitter(mq.q, i))
		_, n := eng.memo.size()
		if n > max {
			t.Fatalf("retained bytes = %d exceed max %d", n, max)
		}
		retained := 0
		for _, e := range eng.memo.m {
			retained += e.bytes
		}
		if retained != n {
			t.Fatalf("bytes = %d, entries retain %d", n, retained)
		}
	}
	if eng.memo.resets.Load() == 0 {
		t.Fatal("40 distinct keys through a 4-entry memo but resets stayed 0")
	}
}

// TestQueryMemoDoorkeeperCollisions forces keys into one doorkeeper slot.
// Serially, two keys sharing a slot evict each other's sighting, so
// alternating them admits neither, while asking one twice in a row admits it.
// Concurrently (run under -race), goroutines hammering the colliding keys
// always get the computed answer, and the memo retains only those answers.
func TestQueryMemoDoorkeeperCollisions(t *testing.T) {
	mq := newMemoQuery(t)
	eng := mq.w.eng
	// Hash candidate keys the way put does until four share a slot.
	bySlot := make(map[uint64][]*traj.Trajectory)
	var group []*traj.Trajectory
	for i := 0; group == nil; i++ {
		if i == 1<<20 {
			t.Fatal("no four candidate keys share a doorkeeper slot")
		}
		q := jitter(mq.q, i)
		slot := newQueryKey(mq.v.Epoch(), mq.p, q.Points).hash() >> doorShift
		if bySlot[slot] = append(bySlot[slot], q); len(bySlot[slot]) == 4 {
			group = bySlot[slot]
		}
	}
	want := make([]*Result, len(group))
	for i, q := range group {
		want[i] = solveFresh(t, eng, mq.v, mq.p, q)
	}
	for _, i := range []int{0, 1, 0, 1} {
		ask(eng, mq.p, group[i])
	}
	if s := statsOf(eng.memo); s.entries != 0 || s.declined != 4 {
		t.Fatalf("alternating colliding keys: %+v, want no entry and 4 declined", s)
	}
	ask(eng, mq.p, group[1])
	if s := statsOf(eng.memo); s.entries != 1 || s.declined != 4 {
		t.Fatalf("repeating a key: %+v, want 1 entry and 4 declined", s)
	}

	k := newQueryKey(mq.v.Epoch(), mq.p, group[0].Points)
	eng.memo = newQueryMemo(3 * retain(&k, want[0]).bytes) // small bound: resets too
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (seed*7 + r/(1+seed%3)) % len(group) // runs of repeats and alternations
				if got := ask(eng, mq.p, group[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("key %d: memo answered %+v, direct %+v", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s := statsOf(eng.memo); s.hits+s.misses != workers*rounds || s.declined > s.misses {
		t.Fatalf("%+v for %d asks", s, workers*rounds)
	}
	eng.memo.mu.RLock()
	defer eng.memo.mu.RUnlock()
	for k, e := range eng.memo.m {
		i := slices.IndexFunc(group, func(q *traj.Trajectory) bool { return newQueryKey(k.epoch, k.p, q.Points) == k })
		if i < 0 || !reflect.DeepEqual(&e.res, want[i]) {
			t.Fatalf("memo retains %+v for key %d", e.res, i)
		}
	}
}

// TestQueryMemoEpochInvalidation: answers are epoch-tagged — an ingest
// invalidates them, identical queries within an epoch still hit once
// admitted on their second miss.
func TestQueryMemoEpochInvalidation(t *testing.T) {
	mq := newMemoQuery(t)
	st := hist.NewStore(mq.w.g, mq.w.ds.Archive, hist.StoreConfig{})
	eng := NewEngine(st, mq.p)
	before := ask(eng, mq.p, mq.q)
	if s := statsOf(eng.memo); s.hits != 0 || s.misses != 1 {
		t.Fatalf("stats after first call: %+v", s)
	}
	ask(eng, mq.p, mq.q) // the second miss admits the key
	ask(eng, mq.p, mq.q)
	if s := statsOf(eng.memo); s.hits != 1 || s.misses != 2 {
		t.Fatalf("stats after repeats within the epoch: %+v, want 1 hit / 2 misses", s)
	}

	st.IngestTrips(onPath(mq.q))
	after := ask(eng, mq.p, mq.q)
	if s := statsOf(eng.memo); s.hits != 1 || s.misses != 3 {
		t.Fatalf("stats after ingest: %+v (stale memo served?)", s)
	}
	if n := eng.memo.invalidations.Load(); n != 1 {
		t.Fatalf("invalidations = %d", n)
	}
	if after.Pairs[0].Refs == before.Pairs[0].Refs {
		// The ingested trip adds a reference for this pair.
		t.Fatal("post-ingest answer identical to stale answer")
	}
	admitted(eng, mq.p, mq.q)
	if s := statsOf(eng.memo); s.hits != 2 {
		t.Fatal("repeat in new epoch did not hit")
	}
}

// TestQueryMemoFirstSightingInvalidates: a key of a newer epoch purges the
// older generation on its first sighting, though that sighting itself is
// not memoized.
func TestQueryMemoFirstSightingInvalidates(t *testing.T) {
	mq := newMemoQuery(t)
	st := hist.NewStore(mq.w.g, mq.w.ds.Archive, hist.StoreConfig{})
	eng := NewEngine(st, mq.p)
	admitted(eng, mq.p, mq.q)
	if n, _ := eng.memo.size(); n != 1 {
		t.Fatalf("memo holds %d entries before the ingest, want 1", n)
	}
	st.IngestTrips(onPath(mq.q))
	ask(eng, mq.p, mq.q)
	if s := statsOf(eng.memo); s.entries != 0 || s.bytes != 0 || eng.memo.invalidations.Load() != 1 || s.declined != 2 {
		t.Fatalf("after a newer epoch's first sighting: %+v, %d invalidations; want no entry, 1 invalidation, 2 declined",
			s, eng.memo.invalidations.Load())
	}
}

// TestShardedQueryMemoComposite: the memo distinguishes generations of a
// sharded store — a reader pinned to an old generation is served unmemoized
// after a sibling-shard ingest, and current-generation queries miss (never
// serving stale results) then re-memoize on their second miss.
func TestShardedQueryMemoComposite(t *testing.T) {
	mq := newMemoQuery(t)
	st := hist.NewShardedStore(mq.w.g, mq.w.ds.Archive, hist.ShardedConfig{Shards: 4, Halo: mq.p.Phi})
	old := st.Current()
	src := &steeredSource{Source: st}
	eng := NewEngine(src, mq.p)
	admitted(eng, mq.p, mq.q)
	if n, _ := eng.memo.size(); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
	// Ingest far from the query corridor: only a sibling shard's epoch
	// moves, but the store's generation — and thus the key — must change
	// anyway.
	box := mq.w.g.BBox()
	far := box.Max
	if qi := mq.q.Points[0].Pt; qi.Dist(box.Min) > qi.Dist(far) {
		far = box.Min
	}
	st.IngestTrips(&traj.Trajectory{ID: "far", Points: []traj.GPSPoint{{Pt: far, T: 0}, {Pt: far, T: 60}}})
	admitted(eng, mq.p, mq.q)
	if s := statsOf(eng.memo); s.misses != 4 {
		t.Fatalf("misses = %d, want 4 (stale generation must not hit)", s.misses)
	}
	want := solveFresh(t, eng, old, mq.p, mq.q)
	src.steer(nil, old)
	for i := 0; i < 2; i++ {
		if got := ask(eng, mq.p, mq.q); !reflect.DeepEqual(got, want) {
			t.Fatalf("pinned-generation answer %+v, want %+v", got, want)
		}
	}
	if n, _ := eng.memo.size(); n != 1 {
		t.Fatalf("stale generation's answer was memoized: %d entries", n)
	}
}

// TestQueryMemoSessionMatchesOffline: a session on an engine whose memo
// holds the query computes every pair — sessions never read the memo — and
// finalizes byte-identically to the offline answer.
func TestQueryMemoSessionMatchesOffline(t *testing.T) {
	w := newWorld(t, 80, 467)
	q := w.queries(t, 1)[0]
	v := w.eng.src.Current()
	want := admitted(w.eng, w.p, q)
	before := statsOf(w.eng.memo)
	s := w.eng.NewSession(w.p, SessionConfig{})
	for _, pt := range q.Points {
		if _, err := s.Push(context.Background(), pt); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if after := statsOf(w.eng.memo); after != before {
		t.Fatalf("the session touched the memo: %+v, was %+v", after, before)
	}
	if encodeFull(v, got) != encodeFull(v, want) {
		t.Fatalf("session over a warm memo:\n%s\noffline:\n%s", encodeFull(v, got), encodeFull(v, want))
	}
}

// memoDigest hashes every memo entry's key and answer.
func memoDigest(c *queryMemo) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var lines []string
	for k, e := range c.m {
		lines = append(lines, fmt.Sprintf("%+v %+v", k, e.res))
	}
	slices.Sort(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%d entries %x", len(lines), h.Sum(nil))
}

// TestQueryMemoReadOnly: memoized answers are shared, so nothing downstream
// of a hit may write into them. On one engine whose memo holds every query,
// concurrent repeated offline queries and sessions — each answer
// JSON-encoded as the server encodes it, and each provisional tail built
// from the same local routes the memo holds for offline callers — answer as
// a fresh engine does and leave every entry as it was (and, under -race,
// read them without a race).
func TestQueryMemoReadOnly(t *testing.T) {
	w := newWorld(t, 80, 469)
	queries := w.queries(t, 3)
	v := w.eng.src.Current()
	wants := make([]string, len(queries))
	for i, q := range queries {
		res, err := NewEngine(w.eng.src, w.p).InferRoutes(q, w.p)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = encodeFull(v, res)
	}
	for i := 0; i < 2; i++ {
		inferConcurrently(context.Background(), w.eng, queries, w.p, 1)
	}
	before := memoDigest(w.eng.memo)
	hits := w.eng.memo.hits.Load()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				qi := (g + r) % len(queries)
				q := queries[qi]
				if g%2 == 0 {
					res, err := w.eng.InferRoutes(q, w.p)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := json.Marshal(res); err != nil {
						t.Error(err)
						return
					}
					if got := encodeFull(v, res); got != wants[qi] {
						t.Errorf("query %d served from the memo:\n%s\na fresh engine:\n%s", qi, got, wants[qi])
						return
					}
					continue
				}
				s := w.eng.NewSession(w.p, SessionConfig{Window: 1 + r})
				for _, pt := range q.Points {
					up, err := s.Push(context.Background(), pt)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := json.Marshal(up); err != nil {
						t.Error(err)
						return
					}
				}
				res, err := s.Finalize()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := json.Marshal(res); err != nil {
					t.Error(err)
					return
				}
				if got := encodeFull(v, res); got != wants[qi] {
					t.Errorf("query %d streamed:\n%s\na fresh engine:\n%s", qi, got, wants[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if w.eng.memo.hits.Load() == hits {
		t.Fatal("no request was served from the memo")
	}
	if after := memoDigest(w.eng.memo); after != before {
		t.Fatalf("serving changed the memo: %s, was %s", after, before)
	}
}
