package hist

import (
	"context"
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

func TestSearchCacheMatchesDirect(t *testing.T) {
	g, qi, qj := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	t2 := lineTraj("t2", geo.Pt(40, 20), geo.Pt(40, 200), geo.Pt(40, 400))
	a := NewArchive(g, []*traj.Trajectory{t1, t2})
	c := NewSearchCache(0)
	sp := SearchParams{Phi: 60, SpliceEps: 0}

	want := References(a, qi, qj, sp)
	got := cachedRefs(c, a, qi, qj, sp)
	if len(got) != len(want) {
		t.Fatalf("memoized references = %d, direct = %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reference %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	again := cachedRefs(c, a, qi, qj, sp)
	if len(again) > 0 && &again[0] != &got[0] {
		t.Fatal("repeat lookup rebuilt the reference slice")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestSearchCacheKeysOnParams(t *testing.T) {
	g, qi, qj := refWorld()
	t1 := lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10))
	a := NewArchive(g, []*traj.Trajectory{t1})
	c := NewSearchCache(0)
	if n := len(cachedRefs(c, a, qi, qj, SearchParams{Phi: 60})); n != 1 {
		t.Fatalf("phi=60: %d references", n)
	}
	if n := len(cachedRefs(c, a, qi, qj, SearchParams{Phi: 1})); n != 0 {
		t.Fatal("phi=1 hit the phi=60 entry")
	}
	// The pair travelled the other way is a distinct key (and finds nothing:
	// wrong direction).
	from, to := traj.GPSPoint{Pt: qj.Pt, T: qi.T}, traj.GPSPoint{Pt: qi.Pt, T: qj.T}
	if n := len(cachedRefs(c, a, from, to, SearchParams{Phi: 60})); n != 0 {
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
	cachedRefs(c, st, qi, qj, sp) // observe epoch 2
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
	if _, m := c.Stats(); m != 2 {
		t.Fatalf("misses = %d, want 2", m)
	}
	// Repeating the pinned-view query misses again (never memoized) but
	// still answers correctly.
	if again := c.ReferencesOn(t.Context(), old, qi, qj, sp, new(Searcher), nil); len(again) != len(want) {
		t.Fatalf("repeat pinned-view answer has %d refs, want %d", len(again), len(want))
	}
	if h, m := c.Stats(); h != 0 || m != 3 {
		t.Fatalf("stats = %d/%d, want 0/3", h, m)
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
		cachedRefs(c, a, qi, qj, sp)
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
