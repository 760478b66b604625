package hist

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

// cachedRefs asks the memo against src's current generation — what an
// engine does once per inference call.
func cachedRefs(c *SearchCache, src Source, qi, qj traj.GPSPoint, p SearchParams) []Reference {
	return c.ReferencesOn(context.Background(), src.Current(), qi, qj, p, new(Searcher), nil)
}

// admittedRefs asks the memo twice, so that the key is memoized — a first
// sighting is answered but not retained — and returns the second answer.
func admittedRefs(c *SearchCache, src Source, qi, qj traj.GPSPoint, p SearchParams) []Reference {
	cachedRefs(c, src, qi, qj, p)
	return cachedRefs(c, src, qi, qj, p)
}

// TestSearchCacheMatchesDirect: whether declined, admitted or hit, the memo
// answers exactly what the direct search does.
func TestSearchCacheMatchesDirect(t *testing.T) {
	g, qi, qj := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	t2 := lineTraj("t2", geo.Pt(40, 20), geo.Pt(40, 200), geo.Pt(40, 400))
	a := NewArchive(g, []*traj.Trajectory{t1, t2})
	c := NewSearchCache(0)
	sp := SearchParams{Phi: 60, SpliceEps: 0}

	want := References(a, qi, qj, sp)
	if len(want) == 0 {
		t.Fatal("fixture pair has no references")
	}
	for call := 0; call < 3; call++ {
		if got := cachedRefs(c, a, qi, qj, sp); !slices.Equal(got, want) {
			t.Fatalf("call %d: memo answered %+v, direct %+v", call, got, want)
		}
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 || c.Declined() != 1 {
		t.Fatalf("stats = %d hits / %d misses / %d declined, want 1/2/1", hits, misses, c.Declined())
	}
}

// TestSearchCacheAdmitsOnSecondMiss: a key asked three times misses, misses
// again and is memoized, then hits with the very slice the second miss
// returned.
func TestSearchCacheAdmitsOnSecondMiss(t *testing.T) {
	g, qi, qj := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	a := NewArchive(g, []*traj.Trajectory{t1})
	c := NewSearchCache(0)
	sp := SearchParams{Phi: 60}

	first := cachedRefs(c, a, qi, qj, sp)
	if h, m := c.Stats(); h != 0 || m != 1 || c.Declined() != 1 || c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after a first sighting: %d hits, %d misses, %d declined, %d entries, %d bytes",
			h, m, c.Declined(), c.Len(), c.Bytes())
	}
	second := cachedRefs(c, a, qi, qj, sp)
	if h, m := c.Stats(); h != 0 || m != 2 || c.Declined() != 1 || c.Len() != 1 || c.Bytes() != entryBytes(second) {
		t.Fatalf("after a second sighting: %d hits, %d misses, %d declined, %d entries, %d bytes",
			h, m, c.Declined(), c.Len(), c.Bytes())
	}
	third := cachedRefs(c, a, qi, qj, sp)
	if h, m := c.Stats(); h != 1 || m != 2 {
		t.Fatalf("third ask: %d hits, %d misses, want 1/2", h, m)
	}
	if len(first) == 0 || &third[0] != &second[0] || &first[0] == &second[0] {
		t.Fatal("the hit must return the slice the admitting miss memoized")
	}
}

// TestSearchCacheSkipsCancelledSearch: a search whose context is cancelled
// is neither memoized nor counted as a sighting, so a later complete
// search still needs two misses to be admitted.
func TestSearchCacheSkipsCancelledSearch(t *testing.T) {
	g, qi, qj := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	a := NewArchive(g, []*traj.Trajectory{t1})
	c := NewSearchCache(0)
	sp := SearchParams{Phi: 60}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		c.ReferencesOn(ctx, a.Current(), qi, qj, sp, new(Searcher), nil)
	}
	if c.Len() != 0 || c.Declined() != 0 {
		t.Fatalf("after cancelled searches: %d entries, %d declined, want 0/0", c.Len(), c.Declined())
	}
	cachedRefs(c, a, qi, qj, sp)
	if c.Len() != 0 || c.Declined() != 1 {
		t.Fatalf("first complete search: %d entries, %d declined, want 0/1", c.Len(), c.Declined())
	}
	cachedRefs(c, a, qi, qj, sp)
	if c.Len() != 1 {
		t.Fatalf("second complete search: %d entries, want 1", c.Len())
	}
}

// TestSearchCacheFreshKeysRetainNothing: never-repeated keys — fresh traffic
// — leave the memo empty, each one counted as declined.
func TestSearchCacheFreshKeysRetainNothing(t *testing.T) {
	g, _, _ := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(200, 10), geo.Pt(400, 10))
	a := NewArchive(g, []*traj.Trajectory{t1})
	c := NewSearchCache(0)
	sp := SearchParams{Phi: 100, SpliceEps: 200}
	const keys = 10000
	found := 0
	for i := 0; i < keys; i++ {
		qi := traj.GPSPoint{Pt: geo.Pt(float64(i%100)*4, float64(i/100)*0.1), T: 0}
		qj := traj.GPSPoint{Pt: geo.Pt(float64(i%100)*4+200, 10), T: 300}
		found += len(cachedRefs(c, a, qi, qj, sp))
	}
	if found == 0 {
		t.Fatal("no key found references: the memo was never offered anything")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("%d distinct keys left %d entries, %d bytes; want none", keys, c.Len(), c.Bytes())
	}
	if h, m := c.Stats(); h != 0 || m != keys || c.Declined() != keys {
		t.Fatalf("stats = %d hits / %d misses / %d declined, want 0/%d/%d", h, m, c.Declined(), keys, keys)
	}
}

func TestSearchCacheKeysOnParams(t *testing.T) {
	g, qi, qj := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	a := NewArchive(g, []*traj.Trajectory{t1})
	c := NewSearchCache(0)
	if n := len(admittedRefs(c, a, qi, qj, SearchParams{Phi: 60})); n != 1 {
		t.Fatalf("phi=60: %d references", n)
	}
	if n := len(admittedRefs(c, a, qi, qj, SearchParams{Phi: 1})); n != 0 {
		t.Fatal("phi=1 hit the phi=60 entry")
	}
	// The pair travelled the other way is a distinct key (and finds nothing:
	// wrong direction).
	from, to := traj.GPSPoint{Pt: qj.Pt, T: qi.T}, traj.GPSPoint{Pt: qi.Pt, T: qj.T}
	if n := len(admittedRefs(c, a, from, to, SearchParams{Phi: 60})); n != 0 {
		t.Fatal("reversed pair hit the forward entry")
	}
	if c.Len() != 3 {
		t.Fatalf("memo entries = %d, want 3", c.Len())
	}
}

func TestSearchCacheConcurrent(t *testing.T) {
	g, qi, qj := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	a := NewArchive(g, []*traj.Trajectory{t1})
	c := NewSearchCache(4 * entryBytes(make([]Reference, 1))) // tiny bound: exercise resets
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				phi := 40 + float64((seed+i)%8)*10
				refs := cachedRefs(c, a, qi, qj, SearchParams{Phi: phi})
				for _, r := range refs {
					if len(refPoints(a, r)) == 0 {
						t.Error("memoized reference lost its points")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSearchCacheStaleEpochNotMemoized: a reader still pinned to an old
// snapshot recomputes on miss but must not repopulate the memo with
// entries no current reader can hit.
func TestSearchCacheStaleEpochNotMemoized(t *testing.T) {
	g, qi, qj := refWorld()
	st := NewStore(g, nil, StoreConfig{})
	st.IngestTrips(storeTrips()[:3]...)
	old := st.Current() // pin epoch 1
	c := NewSearchCache(0)
	sp := SearchParams{Phi: 60, SpliceEps: 50}

	st.IngestTrips(storeTrips()[3:]...)
	admittedRefs(c, st, qi, qj, sp) // observe epoch 2
	if c.Len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", c.Len())
	}

	want := References(old, qi, qj, sp)
	got := c.ReferencesOn(t.Context(), old, qi, qj, sp, new(Searcher), nil)
	if len(got) != len(want) {
		t.Fatalf("pinned-view answer has %d refs, want %d", len(got), len(want))
	}
	if c.Len() != 1 {
		t.Fatalf("stale-epoch result was memoized: memo holds %d entries", c.Len())
	}
	if _, m := c.Stats(); m != 3 {
		t.Fatalf("misses = %d, want 3", m)
	}
	// Repeating the pinned-view query — a second sighting, which a current
	// key would be admitted on — misses again (never memoized) but still
	// answers correctly.
	if again := c.ReferencesOn(t.Context(), old, qi, qj, sp, new(Searcher), nil); len(again) != len(want) {
		t.Fatalf("repeat pinned-view answer has %d refs, want %d", len(again), len(want))
	}
	if h, m := c.Stats(); h != 0 || m != 4 || c.Len() != 1 {
		t.Fatalf("stats = %d/%d with %d entries, want 0/4 with 1", h, m, c.Len())
	}
}

// TestSearchCacheResetCounter drives the memo past a tiny byte bound and
// checks the thrash signal: resets climbs while Bytes() stays within the
// bound, and Bytes() is exactly what the entries retain.
func TestSearchCacheResetCounter(t *testing.T) {
	g, _, _ := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(200, 10), geo.Pt(400, 10))
	a := NewArchive(g, []*traj.Trajectory{t1})
	max := 4 * entryBytes(make([]Reference, 1))
	c := NewSearchCache(max)
	sp := SearchParams{Phi: 500, SpliceEps: 200, SpliceMinSimple: 8}
	for i := 0; i < 40; i++ {
		qi := traj.GPSPoint{Pt: geo.Pt(float64(i)*11, float64(i)*3), T: 0}
		qj := traj.GPSPoint{Pt: geo.Pt(float64(i)*11+200, float64(i)*3+50), T: 300}
		admittedRefs(c, a, qi, qj, sp)
		if n := c.Bytes(); n > max {
			t.Fatalf("Bytes = %d exceeds max %d", n, max)
		}
		retained := 0
		for _, refs := range c.m {
			retained += entryBytes(refs)
		}
		if retained != c.Bytes() {
			t.Fatalf("Bytes = %d, entries retain %d", c.Bytes(), retained)
		}
	}
	if c.Resets() == 0 {
		t.Fatal("40 distinct keys through a 4-entry memo but resets stayed 0")
	}
}

// TestSearchCacheDoorkeeperCollisions forces keys into one doorkeeper slot.
// Serially, two keys sharing a slot evict each other's sighting, so
// alternating them admits neither, while asking one twice in a row admits it.
// Concurrently (run under -race), goroutines hammering the colliding keys
// always get the direct answer, and the memo retains only those answers.
func TestSearchCacheDoorkeeperCollisions(t *testing.T) {
	g, _, _ := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	a := NewArchive(g, []*traj.Trajectory{t1})
	sp := SearchParams{Phi: 100, SpliceEps: 200}
	qj := traj.GPSPoint{Pt: geo.Pt(300, 10), T: 300}
	// Hash candidate keys the way ReferencesOn does until four share a slot.
	bySlot := make(map[uint64][]traj.GPSPoint)
	var group []traj.GPSPoint
	for i := 0; group == nil; i++ {
		if i == 1<<20 {
			t.Fatal("no four candidate keys share a doorkeeper slot")
		}
		qi := traj.GPSPoint{Pt: geo.Pt(float64(i%200), float64(i/200)*0.01), T: 0}
		k := searchKey{epoch: a.Epoch(), qi: qi, qj: qj, p: sp}
		slot := k.hash() >> doorShift
		if bySlot[slot] = append(bySlot[slot], qi); len(bySlot[slot]) == 4 {
			group = bySlot[slot]
		}
	}
	want := make([][]Reference, len(group))
	nonEmpty := false
	for i, qi := range group {
		want[i] = References(a, qi, qj, sp)
		nonEmpty = nonEmpty || len(want[i]) > 0
	}
	if !nonEmpty {
		t.Fatal("no colliding key has references")
	}

	c := NewSearchCache(0)
	for _, i := range []int{0, 1, 0, 1} {
		cachedRefs(c, a, group[i], qj, sp)
	}
	if c.Len() != 0 || c.Declined() != 4 {
		t.Fatalf("alternating colliding keys: %d entries, %d declined; want 0, 4", c.Len(), c.Declined())
	}
	cachedRefs(c, a, group[1], qj, sp)
	if c.Len() != 1 || c.Declined() != 4 {
		t.Fatalf("repeating a key: %d entries, %d declined; want 1, 4", c.Len(), c.Declined())
	}

	c = NewSearchCache(3 * entryBytes(make([]Reference, 2))) // small bound: resets too
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (seed*7 + r/(1+seed%3)) % len(group) // runs of repeats and alternations
				if got := cachedRefs(c, a, group[i], qj, sp); !slices.Equal(got, want[i]) {
					t.Errorf("key %d: memo answered %+v, direct %+v", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if h, m := c.Stats(); h+m != workers*rounds || c.Declined() > m {
		t.Fatalf("%d hits + %d misses (%d declined) for %d asks", h, m, c.Declined(), workers*rounds)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k, refs := range c.m {
		i := slices.Index(group, k.qi)
		if i < 0 || !slices.Equal(refs, want[i]) {
			t.Fatalf("memo retains %+v for key %d, direct %+v", refs, i, want[max(i, 0)])
		}
	}
}
