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

// askPairCtx answers ⟨qi, qj⟩ on eng as one pair of a whole query pinned to
// v does: through the pair memo.
func askPairCtx(ctx context.Context, eng *Engine, v hist.View, p Params, qi, qj traj.GPSPoint) pairOutcome {
	x := eng.newExec(ctx, p, v)
	x.sc = eng.getScratch()
	defer eng.putScratch(x.sc)
	return x.inferPair(0, qi, qj)
}

func askPair(eng *Engine, v hist.View, p Params, qi, qj traj.GPSPoint) pairOutcome {
	return askPairCtx(context.Background(), eng, v, p, qi, qj)
}

// admittedPair asks the memo twice, so that the key is memoized — a first
// sighting is answered but not retained — and returns the second answer.
func admittedPair(eng *Engine, v hist.View, p Params, qi, qj traj.GPSPoint) pairOutcome {
	askPair(eng, v, p, qi, qj)
	return askPair(eng, v, p, qi, qj)
}

// solveFresh computes the pair's outcome past any memo.
func solveFresh(eng *Engine, v hist.View, p Params, qi, qj traj.GPSPoint) pairOutcome {
	x := eng.newExec(context.Background(), p, v)
	x.sc = eng.getScratch()
	defer eng.putScratch(x.sc)
	return x.solvePair(0, qi, qj)
}

// cloneOutcome deep-copies out, so that a later write into the original's
// routes or reference ids shows against the copy.
func cloneOutcome(out pairOutcome) pairOutcome {
	c := pairOutcome{stats: out.stats, locals: slices.Clone(out.locals)}
	for i, l := range c.locals {
		c.locals[i].Route, c.locals[i].Refs = slices.Clone(l.Route), slices.Clone(l.Refs)
	}
	return c
}

// memoStats is the memo's counters and size at one moment.
type memoStats struct{ hits, misses, declined, entries, bytes int }

func statsOf(c *pairMemo) memoStats {
	n, b := c.size()
	return memoStats{int(c.hits.Load()), int(c.misses.Load()), int(c.declined.Load()), n, b}
}

// memoPair is a memo test's engine, parameters and query pair: the pair of a
// drawn query with the most references, so its outcome is reference-backed.
type memoPair struct {
	w      *world
	v      hist.View
	p      Params
	qi, qj traj.GPSPoint
}

func newMemoPair(t *testing.T) memoPair {
	t.Helper()
	w := newWorld(t, 60, 461)
	q := w.queries(t, 1)[0]
	v := w.eng.src.Current()
	best, most := 0, -1
	for i := 0; i+1 < q.Len(); i++ {
		if out := solveFresh(w.eng, v, w.p, q.Points[i], q.Points[i+1]); out.stats.Refs > most {
			best, most = i, out.stats.Refs
		}
	}
	if most < 1 {
		t.Fatal("no pair of the query has references")
	}
	return memoPair{w: w, v: v, p: w.p, qi: q.Points[best], qj: q.Points[best+1]}
}

// jitter moves qi by i centimetres east: a distinct key whose outcome is
// that of a pair a hair away.
func jitter(q traj.GPSPoint, i int) traj.GPSPoint {
	q.Pt = geo.Pt(q.Pt.X+float64(i)*0.01, q.Pt.Y)
	return q
}

// TestPairMemoMatchesDirect: whether declined, admitted or hit, the memo
// answers exactly what the pair's computation does.
func TestPairMemoMatchesDirect(t *testing.T) {
	mp := newMemoPair(t)
	eng := mp.w.eng
	want := solveFresh(eng, mp.v, mp.p, mp.qi, mp.qj)
	if len(want.locals) == 0 || want.stats.Refs == 0 {
		t.Fatal("fixture pair has no reference-backed routes")
	}
	for call := 0; call < 3; call++ {
		if got := askPair(eng, mp.v, mp.p, mp.qi, mp.qj); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: memo answered %+v, direct %+v", call, got, want)
		}
	}
	if s := statsOf(eng.memo); s.hits != 1 || s.misses != 2 || s.declined != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 declined", s)
	}
}

// TestPairMemoAdmitsOnSecondMiss: a key asked three times misses, misses
// again and is memoized, then hits with the very outcome the memo retained,
// which shares its routes with the admitting miss's answer.
func TestPairMemoAdmitsOnSecondMiss(t *testing.T) {
	mp := newMemoPair(t)
	c := mp.w.eng.memo
	first := askPair(mp.w.eng, mp.v, mp.p, mp.qi, mp.qj)
	if s := statsOf(c); s != (memoStats{0, 1, 1, 0, 0}) {
		t.Fatalf("after a first sighting: %+v", s)
	}
	second := askPair(mp.w.eng, mp.v, mp.p, mp.qi, mp.qj)
	k := pairKey{epoch: mp.v.Epoch(), qi: mp.qi, qj: mp.qj, p: mp.p}
	entry := c.m[k]
	if s := statsOf(c); s != (memoStats{0, 2, 1, 1, entryBytes(entry)}) {
		t.Fatalf("after a second sighting: %+v, want one entry of %d bytes", s, entryBytes(entry))
	}
	third := askPair(mp.w.eng, mp.v, mp.p, mp.qi, mp.qj)
	if s := statsOf(c); s.hits != 1 || s.misses != 2 {
		t.Fatalf("third ask: %+v, want 1 hit / 2 misses", s)
	}
	if len(first.locals) == 0 || &third.locals[0] != &entry.locals[0] || &first.locals[0] == &entry.locals[0] ||
		&third.locals[0].Route[0] != &second.locals[0].Route[0] {
		t.Fatal("the hit must return the outcome the admitting miss memoized")
	}
}

// TestPairMemoSkipsCancelledPair: a pair whose context is cancelled, or
// whose deadline expired so that it degraded, is neither memoized nor
// counted as a sighting, so a later complete pair still needs two misses to
// be admitted.
func TestPairMemoSkipsCancelledPair(t *testing.T) {
	mp := newMemoPair(t)
	c := mp.w.eng.memo
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		askPairCtx(cancelled, mp.w.eng, mp.v, mp.p, mp.qi, mp.qj)
		if out := askPairCtx(expired, mp.w.eng, mp.v, mp.p, mp.qi, mp.qj); !out.stats.Degraded {
			t.Fatalf("a pair past its deadline answered %+v, want it degraded", out.stats)
		}
	}
	if s := statsOf(c); s.entries != 0 || s.declined != 0 {
		t.Fatalf("after cancelled and degraded pairs: %+v, want no entry and none declined", s)
	}
	askPair(mp.w.eng, mp.v, mp.p, mp.qi, mp.qj)
	if s := statsOf(c); s.entries != 0 || s.declined != 1 {
		t.Fatalf("first complete pair: %+v, want no entry and 1 declined", s)
	}
	askPair(mp.w.eng, mp.v, mp.p, mp.qi, mp.qj)
	if s := statsOf(c); s.entries != 1 {
		t.Fatalf("second complete pair: %+v, want 1 entry", s)
	}
}

// TestPairMemoNeverServesDegraded: the key drops Deadline, so a degraded
// outcome, once memoized, would be served to a query with no deadline. A
// query run three times under a 1 ns budget degrades every time; the same
// query with no budget then answers exactly as a fresh engine does.
func TestPairMemoNeverServesDegraded(t *testing.T) {
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

// TestPairMemoFreshKeysRetainNothing: never-repeated keys — fresh traffic —
// leave the memo empty, each one counted as declined.
func TestPairMemoFreshKeysRetainNothing(t *testing.T) {
	mp := newMemoPair(t)
	c := mp.w.eng.memo
	const keys = 10000
	found := 0
	for i := 0; i < keys; i++ {
		found += askPair(mp.w.eng, mp.v, mp.p, jitter(mp.qi, i), mp.qj).stats.Refs
	}
	if found == 0 {
		t.Fatal("no key found references: the memo was never offered anything")
	}
	if s := statsOf(c); s != (memoStats{0, keys, keys, 0, 0}) {
		t.Fatalf("%d distinct keys: %+v, want every one a declined miss and nothing retained", keys, s)
	}
}

// TestPairMemoKeysOnParams: the parameters are part of the key — a change
// to any field but Deadline misses, a change to Deadline alone hits — and so
// is the pair's direction.
func TestPairMemoKeysOnParams(t *testing.T) {
	mp := newMemoPair(t)
	eng := mp.w.eng
	admittedPair(eng, mp.v, mp.p, mp.qi, mp.qj)
	typ := reflect.TypeOf(mp.p)
	for f := 0; f < typ.NumField(); f++ {
		p := mp.p
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
		askPair(eng, mp.v, p, mp.qi, mp.qj)
		hit := eng.memo.hits.Load() > hits
		if name := typ.Field(f).Name; hit != (name == "Deadline") {
			t.Errorf("Params.%s changed: hit = %v", name, hit)
		}
	}
	// The pair travelled the other way is a distinct key.
	from, to := traj.GPSPoint{Pt: mp.qj.Pt, T: mp.qi.T}, traj.GPSPoint{Pt: mp.qi.Pt, T: mp.qj.T}
	hits := eng.memo.hits.Load()
	admittedPair(eng, mp.v, mp.p, from, to)
	if eng.memo.hits.Load() != hits {
		t.Fatal("reversed pair hit the forward entry")
	}
	wide := mp.p
	wide.Phi *= 2
	admittedPair(eng, mp.v, wide, mp.qi, mp.qj)
	if n, _ := eng.memo.size(); n != 3 {
		t.Fatalf("memo entries = %d, want 3", n)
	}
}

// TestPairMemoConcurrent: goroutines asking one pair under eight parameter
// sets through a memo bounded at a few entries, so that it resets, always
// get the computed answer.
func TestPairMemoConcurrent(t *testing.T) {
	mp := newMemoPair(t)
	eng := mp.w.eng
	params := make([]Params, 8)
	want := make([]pairOutcome, len(params))
	for i := range params {
		params[i] = mp.p
		params[i].Phi = 300 + float64(i)*50
		want[i] = solveFresh(eng, mp.v, params[i], mp.qi, mp.qj)
	}
	eng.memo = newPairMemo(4 * entryBytes(want[0])) // tiny bound: exercise resets
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (seed + i) % len(params)
				if got := askPair(eng, mp.v, params[k], mp.qi, mp.qj); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("φ = %v: memo answered %+v, direct %+v", params[k].Phi, got.stats, want[k].stats)
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

// TestPairMemoStaleEpochNotMemoized: a reader still pinned to an old
// snapshot computes on miss but must not repopulate the memo with entries
// no current reader can hit.
func TestPairMemoStaleEpochNotMemoized(t *testing.T) {
	mp := newMemoPair(t)
	arch := mp.w.ds.Archive
	st := hist.NewStore(mp.w.g, arch[:len(arch)/2], hist.StoreConfig{})
	st.IngestTrips(arch[len(arch)/2 : len(arch)*3/4]...)
	old := st.Current() // pin epoch 1
	st.IngestTrips(arch[len(arch)*3/4:]...)
	eng := NewEngine(st, mp.p)
	admittedPair(eng, st.Current(), mp.p, mp.qi, mp.qj) // observe epoch 2
	if n, _ := eng.memo.size(); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
	want := solveFresh(eng, old, mp.p, mp.qi, mp.qj)
	if got := askPair(eng, old, mp.p, mp.qi, mp.qj); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned-view answer %+v, want %+v", got.stats, want.stats)
	}
	if s := statsOf(eng.memo); s.entries != 1 || s.misses != 3 {
		t.Fatalf("after a stale-epoch miss: %+v, want 1 entry and 3 misses", s)
	}
	// Repeating the pinned-view query — a second sighting, which a current
	// key would be admitted on — misses again (never memoized) but still
	// answers correctly.
	if again := askPair(eng, old, mp.p, mp.qi, mp.qj); !reflect.DeepEqual(again, want) {
		t.Fatalf("repeat pinned-view answer %+v, want %+v", again.stats, want.stats)
	}
	if s := statsOf(eng.memo); s.hits != 0 || s.misses != 4 || s.entries != 1 {
		t.Fatalf("stats = %+v, want 0 hits / 4 misses with 1 entry", s)
	}
}

// TestPairMemoResetCounter drives the memo past a tiny byte bound and
// checks the thrash signal: resets climbs while the retained bytes stay
// within the bound and are exactly what the entries retain.
func TestPairMemoResetCounter(t *testing.T) {
	mp := newMemoPair(t)
	eng := mp.w.eng
	max := 4 * entryBytes(solveFresh(eng, mp.v, mp.p, mp.qi, mp.qj))
	eng.memo = newPairMemo(max)
	for i := 0; i < 40; i++ {
		admittedPair(eng, mp.v, mp.p, jitter(mp.qi, i), mp.qj)
		_, n := eng.memo.size()
		if n > max {
			t.Fatalf("retained bytes = %d exceed max %d", n, max)
		}
		retained := 0
		for _, out := range eng.memo.m {
			retained += entryBytes(out)
		}
		if retained != n {
			t.Fatalf("bytes = %d, entries retain %d", n, retained)
		}
	}
	if eng.memo.resets.Load() == 0 {
		t.Fatal("40 distinct keys through a 4-entry memo but resets stayed 0")
	}
}

// TestPairMemoDoorkeeperCollisions forces keys into one doorkeeper slot.
// Serially, two keys sharing a slot evict each other's sighting, so
// alternating them admits neither, while asking one twice in a row admits it.
// Concurrently (run under -race), goroutines hammering the colliding keys
// always get the computed answer, and the memo retains only those answers.
func TestPairMemoDoorkeeperCollisions(t *testing.T) {
	mp := newMemoPair(t)
	eng := mp.w.eng
	// Hash candidate keys the way put does until four share a slot.
	bySlot := make(map[uint64][]traj.GPSPoint)
	var group []traj.GPSPoint
	for i := 0; group == nil; i++ {
		if i == 1<<20 {
			t.Fatal("no four candidate keys share a doorkeeper slot")
		}
		qi := jitter(mp.qi, i)
		k := pairKey{epoch: mp.v.Epoch(), qi: qi, qj: mp.qj, p: mp.p}
		slot := k.hash() >> doorShift
		if bySlot[slot] = append(bySlot[slot], qi); len(bySlot[slot]) == 4 {
			group = bySlot[slot]
		}
	}
	want := make([]pairOutcome, len(group))
	for i, qi := range group {
		want[i] = solveFresh(eng, mp.v, mp.p, qi, mp.qj)
	}
	for _, i := range []int{0, 1, 0, 1} {
		askPair(eng, mp.v, mp.p, group[i], mp.qj)
	}
	if s := statsOf(eng.memo); s.entries != 0 || s.declined != 4 {
		t.Fatalf("alternating colliding keys: %+v, want no entry and 4 declined", s)
	}
	askPair(eng, mp.v, mp.p, group[1], mp.qj)
	if s := statsOf(eng.memo); s.entries != 1 || s.declined != 4 {
		t.Fatalf("repeating a key: %+v, want 1 entry and 4 declined", s)
	}

	eng.memo = newPairMemo(3 * entryBytes(want[0])) // small bound: resets too
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (seed*7 + r/(1+seed%3)) % len(group) // runs of repeats and alternations
				if got := askPair(eng, mp.v, mp.p, group[i], mp.qj); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("key %d: memo answered %+v, direct %+v", i, got.stats, want[i].stats)
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
	for k, out := range eng.memo.m {
		i := slices.Index(group, k.qi)
		if i < 0 || !reflect.DeepEqual(out, want[i]) {
			t.Fatalf("memo retains %+v for key %d", out.stats, i)
		}
	}
}

// onPath is an archive trip along ⟨qi, qj⟩ itself: ingested, it adds a
// reference to the pair.
func onPath(qi, qj traj.GPSPoint) *traj.Trajectory {
	return &traj.Trajectory{ID: "on-path", Points: []traj.GPSPoint{qi, qj}}
}

// TestPairMemoEpochInvalidation: outcomes are epoch-tagged — an ingest
// invalidates them, identical queries within an epoch still hit once
// admitted on their second miss.
func TestPairMemoEpochInvalidation(t *testing.T) {
	mp := newMemoPair(t)
	st := hist.NewStore(mp.w.g, mp.w.ds.Archive, hist.StoreConfig{})
	eng := NewEngine(st, mp.p)
	before := askPair(eng, st.Current(), mp.p, mp.qi, mp.qj)
	if s := statsOf(eng.memo); s.hits != 0 || s.misses != 1 {
		t.Fatalf("stats after first call: %+v", s)
	}
	askPair(eng, st.Current(), mp.p, mp.qi, mp.qj) // the second miss admits the key
	askPair(eng, st.Current(), mp.p, mp.qi, mp.qj)
	if s := statsOf(eng.memo); s.hits != 1 || s.misses != 2 {
		t.Fatalf("stats after repeats within the epoch: %+v, want 1 hit / 2 misses", s)
	}

	st.IngestTrips(onPath(mp.qi, mp.qj))
	after := askPair(eng, st.Current(), mp.p, mp.qi, mp.qj)
	if s := statsOf(eng.memo); s.hits != 1 || s.misses != 3 {
		t.Fatalf("stats after ingest: %+v (stale memo served?)", s)
	}
	if n := eng.memo.invalidations.Load(); n != 1 {
		t.Fatalf("invalidations = %d", n)
	}
	if after.stats.Refs == before.stats.Refs {
		// The ingested trip adds a reference for this pair.
		t.Fatal("post-ingest answer identical to stale answer")
	}
	admittedPair(eng, st.Current(), mp.p, mp.qi, mp.qj)
	if s := statsOf(eng.memo); s.hits != 2 {
		t.Fatal("repeat in new epoch did not hit")
	}
}

// TestPairMemoFirstSightingInvalidates: a key of a newer epoch purges the
// older generation on its first sighting, though that sighting itself is
// not memoized.
func TestPairMemoFirstSightingInvalidates(t *testing.T) {
	mp := newMemoPair(t)
	st := hist.NewStore(mp.w.g, mp.w.ds.Archive, hist.StoreConfig{})
	eng := NewEngine(st, mp.p)
	admittedPair(eng, st.Current(), mp.p, mp.qi, mp.qj)
	if n, _ := eng.memo.size(); n != 1 {
		t.Fatalf("memo holds %d entries before the ingest, want 1", n)
	}
	st.IngestTrips(onPath(mp.qi, mp.qj))
	askPair(eng, st.Current(), mp.p, mp.qi, mp.qj)
	if s := statsOf(eng.memo); s.entries != 0 || s.bytes != 0 || eng.memo.invalidations.Load() != 1 || s.declined != 2 {
		t.Fatalf("after a newer epoch's first sighting: %+v, %d invalidations; want no entry, 1 invalidation, 2 declined",
			s, eng.memo.invalidations.Load())
	}
}

// TestShardedPairMemoComposite: the memo distinguishes generations of a
// sharded store — a reader pinned to an old generation is served unmemoized
// after a sibling-shard ingest, and current-generation queries miss (never
// serving stale results) then re-memoize on their second miss.
func TestShardedPairMemoComposite(t *testing.T) {
	mp := newMemoPair(t)
	st := hist.NewShardedStore(mp.w.g, mp.w.ds.Archive, hist.ShardedConfig{Shards: 4, Halo: mp.p.Phi})
	old := st.Current()
	eng := NewEngine(st, mp.p)
	admittedPair(eng, old, mp.p, mp.qi, mp.qj)
	if n, _ := eng.memo.size(); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
	// Ingest far from the query corridor: only a sibling shard's epoch
	// moves, but the store's generation — and thus the key — must change
	// anyway.
	box := mp.w.g.BBox()
	far := box.Max
	if qi := mp.qi.Pt; qi.Dist(box.Min) > qi.Dist(far) {
		far = box.Min
	}
	st.IngestTrips(&traj.Trajectory{ID: "far", Points: []traj.GPSPoint{{Pt: far, T: 0}, {Pt: far, T: 60}}})
	admittedPair(eng, st.Current(), mp.p, mp.qi, mp.qj)
	if s := statsOf(eng.memo); s.misses != 4 {
		t.Fatalf("misses = %d, want 4 (stale generation must not hit)", s.misses)
	}
	want := solveFresh(eng, old, mp.p, mp.qi, mp.qj)
	for i := 0; i < 2; i++ {
		if got := askPair(eng, old, mp.p, mp.qi, mp.qj); !reflect.DeepEqual(got, want) {
			t.Fatalf("pinned-generation answer %+v, want %+v", got.stats, want.stats)
		}
	}
	if n, _ := eng.memo.size(); n != 1 {
		t.Fatalf("stale generation's outcome was memoized: %d entries", n)
	}
}

// TestPairMemoSessionMatchesOffline: a session on an engine whose memo holds
// every pair of the query is served from it and finalizes byte-identically to
// the offline answer.
func TestPairMemoSessionMatchesOffline(t *testing.T) {
	w := newWorld(t, 80, 467)
	q := w.queries(t, 1)[0]
	v := w.eng.src.Current()
	var want *Result
	for i := 0; i < 2; i++ {
		res, err := w.eng.InferRoutes(q, w.p)
		if err != nil {
			t.Fatal(err)
		}
		want = res
	}
	hits := w.eng.memo.hits.Load()
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
	if n := w.eng.memo.hits.Load() - hits; n != uint64(q.Len()-1) {
		t.Fatalf("the session hit the memo %d times for %d pairs", n, q.Len()-1)
	}
	if encodeFull(v, got) != encodeFull(v, want) {
		t.Fatalf("session over a warm memo:\n%s\noffline:\n%s", encodeFull(v, got), encodeFull(v, want))
	}
}

// memoDigest hashes every memo entry's key, stats, routes and reference ids.
func memoDigest(c *pairMemo) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var lines []string
	for k, out := range c.m {
		lines = append(lines, fmt.Sprintf("%v %+v %v", k, out.stats, out.locals))
	}
	slices.Sort(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%d entries %x", len(lines), h.Sum(nil))
}

// TestPairMemoReadOnly: memoized outcomes are shared, so nothing downstream
// of a hit may write into them. On one engine whose memo holds every pair,
// concurrent repeated offline queries and sessions — each answer JSON-encoded
// as the server encodes it — answer as a fresh engine does and leave every
// entry's routes, reference ids and stats as they were (and, under -race,
// read them without a race).
func TestPairMemoReadOnly(t *testing.T) {
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
					t.Errorf("query %d streamed from the memo:\n%s\na fresh engine:\n%s", qi, got, wants[qi])
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
