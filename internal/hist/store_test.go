package hist

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/traj"
)

// storeTrips builds a small set of distinct trips around the refWorld query
// pair: some full references, some one-sided candidates.
func storeTrips() []*traj.Trajectory {
	return []*traj.Trajectory{
		lineTraj("t1", geo.Pt(0, 10), geo.Pt(100, 10), geo.Pt(200, 10), geo.Pt(300, 10), geo.Pt(400, 10)),
		lineTraj("t2", geo.Pt(40, 20), geo.Pt(40, 200), geo.Pt(40, 400)),
		lineTraj("t3", geo.Pt(50, 30), geo.Pt(150, 30), geo.Pt(250, 30), geo.Pt(350, 30)),
		lineTraj("t4", geo.Pt(40, 10), geo.Pt(120, 10), geo.Pt(200, 10)),
		lineTraj("t5", geo.Pt(210, 20), geo.Pt(280, 10), geo.Pt(350, 15)),
		lineTraj("t6", geo.Pt(390, 200), geo.Pt(390, 100), geo.Pt(350, 40)),
	}
}

// refEqual compares references by content (the storage indices in
// SourceA/SourceB legitimately differ across ingest orders).
func refEqual(va View, a Reference, vb View, b Reference) bool {
	return a.Spliced == b.Spliced && a.LenA == b.LenA && slices.Equal(refPoints(va, a), refPoints(vb, b))
}

// withinRadius is a radius query over any View, the way every caller now
// makes one: VisitBox plus the exact distance test.
func withinRadius(v View, p geo.Point, r float64) []PointRef {
	var out []PointRef
	v.VisitBox(geo.BBoxAround(p, r), func(_ geo.Point, ref PointRef) bool {
		if pointOf(v, ref).Dist(p) <= r {
			out = append(out, ref)
		}
		return true
	})
	return out
}

// TestStoreIngestVisibility: each ingest publishes a new epoch whose readers
// see the new trips, while previously pinned snapshots stay frozen.
func TestStoreIngestVisibility(t *testing.T) {
	g, qi, _ := refWorld()
	st := NewStore(g, nil, StoreConfig{})
	empty := st.Current()
	if empty.Epoch() != 0 || empty.NumTrajs() != 0 {
		t.Fatalf("fresh store: epoch %d, trajs %d", empty.Epoch(), empty.NumTrajs())
	}

	trips := storeTrips()
	stats := st.IngestTrips(trips[0], trips[1])
	if stats.Trips != 2 || stats.Epoch != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	snap1 := st.Current()
	if snap1.Epoch() != 1 || snap1.NumTrajs() != 2 {
		t.Fatalf("after first batch: epoch %d, trajs %d", snap1.Epoch(), snap1.NumTrajs())
	}
	if got := len(withinRadius(snap1, qi.Pt, 60)); got == 0 {
		t.Fatal("ingested points not visible to range query")
	}
	// The pinned empty snapshot is unchanged.
	if empty.NumTrajs() != 0 || empty.NumPoints() != 0 {
		t.Fatal("earlier snapshot mutated by ingest")
	}
	if got := len(withinRadius(empty, qi.Pt, 60)); got != 0 {
		t.Fatalf("earlier snapshot sees %d new points", got)
	}

	st.IngestTrips(trips[2:]...)
	snap2 := st.Current()
	if snap2.Epoch() != 2 || snap2.NumTrajs() != len(trips) {
		t.Fatalf("after second batch: epoch %d, trajs %d", snap2.Epoch(), snap2.NumTrajs())
	}
	// Batches that admit nothing publish nothing.
	if stats := st.IngestTrips(nil, &traj.Trajectory{ID: "empty"}); stats.Trips != 0 || stats.Epoch != 2 {
		t.Fatalf("empty batch stats = %+v", stats)
	}
	if st.Current() != snap2 {
		t.Fatal("empty batch published a new snapshot")
	}
}

// TestStoreMatchesArchive: a store that ingested the same trips — any order,
// any batching, before or after compaction — answers the reference search
// identically (by content) to the bulk archive.
func TestStoreMatchesArchive(t *testing.T) {
	g, qi, qj := refWorld()
	trips := storeTrips()
	arch := NewArchive(g, trips)
	sp := SearchParams{Phi: 60, SpliceEps: 50}
	want := References(arch, qi, qj, sp)
	if len(want) == 0 {
		t.Fatal("fixture yields no references")
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		perm := rng.Perm(len(trips))
		st := NewStore(g, nil, StoreConfig{})
		for _, i := range perm {
			st.IngestTrips(trips[i])
		}
		if trial%2 == 1 {
			st.Compact()
			if segs := st.Current().Segments(); segs != 1 {
				t.Fatalf("post-compaction segments = %d", segs)
			}
		}
		snap := st.Current()
		got := References(snap, qi, qj, sp)
		if len(got) != len(want) {
			t.Fatalf("perm %v: %d refs, want %d", perm, len(got), len(want))
		}
		for i := range got {
			if !refEqual(snap, got[i], arch, want[i]) {
				t.Fatalf("perm %v: ref %d differs", perm, i)
			}
		}
	}
}

// TestStoreAutoCompaction: hitting CompactSegments triggers the background
// merge; compaction preserves content and epoch.
func TestStoreAutoCompaction(t *testing.T) {
	g, qi, _ := refWorld()
	st := NewStore(g, nil, StoreConfig{CompactSegments: 3})
	trips := storeTrips()
	for _, tr := range trips {
		st.IngestTrips(tr)
		st.Wait() // serialize so every trigger observes the full stack
	}
	st.Compact()
	stats := st.Stats()
	if stats.Segments != 1 {
		t.Fatalf("segments = %d after compaction", stats.Segments)
	}
	if stats.Compactions == 0 {
		t.Fatal("auto compaction never ran")
	}
	if stats.Epoch != uint64(len(trips)) {
		t.Fatalf("epoch = %d, want %d (compaction must not bump it)", stats.Epoch, len(trips))
	}
	if stats.Trajs != len(trips) {
		t.Fatalf("trajs = %d", stats.Trajs)
	}
	if got := len(withinRadius(st.Current(), qi.Pt, 60)); got == 0 {
		t.Fatal("points lost in compaction")
	}
}

// TestStorePreprocessingIngest: Ingest runs the §II-B.1 pipeline with the
// default stay-point parameters (200 m, 20 min) — a raw log splits at each
// dwell into trips, and a one-point fragment is dropped.
func TestStorePreprocessingIngest(t *testing.T) {
	g, _, _ := refWorld()
	log := &traj.Trajectory{ID: "raw"}
	add := func(x, y, ts float64) {
		log.Points = append(log.Points, traj.GPSPoint{Pt: geo.Pt(x, y), T: ts})
	}
	// Drive, dwell 1,400 s within 10 m, drive, dwell again, one last fix.
	for i := 0; i < 5; i++ {
		add(float64(i)*200, 0, float64(i)*30)
	}
	for i := 0; i < 8; i++ {
		add(1000+float64(i%2)*10, 0, 150+float64(i)*200)
	}
	for i := 0; i < 5; i++ {
		add(1300+float64(i)*300, 0, 1600+float64(i)*30)
	}
	for i := 0; i < 8; i++ {
		add(2800+float64(i%2)*10, 0, 1800+float64(i)*200)
	}
	add(3200, 0, 3250)
	st := NewStore(g, nil, StoreConfig{})
	stats := st.Ingest(log)
	if stats.Trips != 2 || stats.Points != 10 {
		t.Fatalf("Ingest admitted %d trips / %d points, want 2 / 10 (each dwell splits, the last fix is dropped)", stats.Trips, stats.Points)
	}
	if st.Current().NumTrajs() != 2 {
		t.Fatalf("store holds %d trajs", st.Current().NumTrajs())
	}
}

// TestStoreObs: ingest and compaction land in the registry.
func TestStoreObs(t *testing.T) {
	g, _, _ := refWorld()
	reg := obs.New()
	st := NewStore(g, nil, StoreConfig{Registry: reg})
	for _, tr := range storeTrips() {
		st.IngestTrips(tr)
	}
	st.Compact()
	snap := reg.Snapshot()
	if snap.Counters[obs.CounterIngestBatches] != 6 || snap.Counters[obs.CounterIngestTrips] != 6 {
		t.Fatalf("ingest counters = %+v", snap.Counters)
	}
	if snap.Counters[obs.CounterIngestPoints] == 0 {
		t.Fatal("no ingest points counted")
	}
	if snap.Stages[obs.StageIngest].Count != 6 {
		t.Fatalf("ingest histogram count = %d", snap.Stages[obs.StageIngest].Count)
	}
	if snap.Counters[obs.CounterCompactions] != 1 || snap.Stages[obs.StageCompaction].Count != 1 {
		t.Fatalf("compaction instrumentation = %+v", snap.Counters)
	}
}

// TestSearchCacheEpochInvalidation: memos are epoch-tagged — an ingest
// invalidates them, identical queries within an epoch still hit once
// admitted on their second miss.
func TestSearchCacheEpochInvalidation(t *testing.T) {
	g, qi, qj := refWorld()
	st := NewStore(g, nil, StoreConfig{})
	st.IngestTrips(storeTrips()[:3]...)
	c := NewSearchCache(0)
	sp := SearchParams{Phi: 60, SpliceEps: 50}

	before := cachedRefs(c, st, qi, qj, sp)
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("stats after first call: %d/%d", h, m)
	}
	cachedRefs(c, st, qi, qj, sp) // the second miss admits the key
	cachedRefs(c, st, qi, qj, sp)
	if h, m := c.Stats(); h != 1 || m != 2 {
		t.Fatalf("stats after repeats within the epoch: %d/%d, want 1/2", h, m)
	}

	st.IngestTrips(storeTrips()[3:]...)
	after := cachedRefs(c, st, qi, qj, sp)
	if h, m := c.Stats(); h != 1 || m != 3 {
		t.Fatalf("stats after ingest: %d/%d (stale memo served?)", h, m)
	}
	if c.Invalidations() != 1 {
		t.Fatalf("invalidations = %d", c.Invalidations())
	}
	if len(after) == len(before) {
		// The extra trips add references for this pair in the fixture.
		t.Fatal("post-ingest answer identical to stale answer")
	}
	admittedRefs(c, st, qi, qj, sp)
	if h, _ := c.Stats(); h != 2 {
		t.Fatal("repeat in new epoch did not hit")
	}
}

// TestSearchCacheFirstSightingInvalidates: a key of a newer epoch purges the
// older generation on its first sighting, though that sighting itself is
// not memoized.
func TestSearchCacheFirstSightingInvalidates(t *testing.T) {
	g, qi, qj := refWorld()
	st := NewStore(g, nil, StoreConfig{})
	st.IngestTrips(storeTrips()[:3]...)
	c := NewSearchCache(0)
	sp := SearchParams{Phi: 60, SpliceEps: 50}
	admittedRefs(c, st, qi, qj, sp)
	if c.Len() != 1 {
		t.Fatalf("memo holds %d entries before the ingest, want 1", c.Len())
	}
	st.IngestTrips(storeTrips()[3:]...)
	cachedRefs(c, st, qi, qj, sp)
	if c.Len() != 0 || c.Bytes() != 0 || c.Invalidations() != 1 || c.Declined() != 2 {
		t.Fatalf("after a newer epoch's first sighting: %d entries, %d bytes, %d invalidations, %d declined; want 0, 0, 1, 2",
			c.Len(), c.Bytes(), c.Invalidations(), c.Declined())
	}
}

// TestStoreConcurrentIngestAndSearch is a -race smoke test: readers pin
// snapshots and search while writers ingest and compact.
func TestStoreConcurrentIngestAndSearch(t *testing.T) {
	g, qi, qj := refWorld()
	st := NewStore(g, nil, StoreConfig{CompactSegments: 2})
	c := NewSearchCache(0)
	trips := storeTrips()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(trips); i += 2 {
				st.IngestTrips(trips[i])
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				snap := st.Current()
				n := snap.NumTrajs()
				refs := References(snap, qi, qj, SearchParams{Phi: 60, SpliceEps: 50})
				for _, ref := range refs {
					// SourceB is -1 for a simple reference.
					if ref.SourceA < 0 || int(ref.SourceA) >= n || int(ref.SourceB) >= n {
						t.Errorf("reference sources %d/%d out of range %d", ref.SourceA, ref.SourceB, n)
						return
					}
				}
				c.ReferencesOn(t.Context(), st.Current(), qi, qj, SearchParams{Phi: 60, SpliceEps: 50}, new(Searcher), nil)
			}
		}()
	}
	wg.Wait()
	st.Wait()
	if st.Current().NumTrajs() != len(trips) {
		t.Fatalf("store holds %d trajs, want %d", st.Current().NumTrajs(), len(trips))
	}
}

// TestStoreConcurrentCompaction: synchronous Compact racing the background
// compaction (and other Compact calls) must serialize. Before the fix, two
// overlapping merges loaded the same pre snapshot; the losing merge then
// spliced cur.segs against a base that had already absorbed them and either
// panicked on a negative slice capacity or published an index silently
// missing memtable segments. The schedule is forced through the
// CompactBeforePublish seam (a single-CPU machine never preempts inside the
// merge window, so the overlap cannot be provoked by load alone): compactor
// A builds its merge and parks before publishing; a second compaction and
// an ingest then run to completion against the same stack; A resumes.
func TestStoreConcurrentCompaction(t *testing.T) {
	g, _, _ := refWorld()
	trips := storeTrips()
	wantPoints := 0
	for _, tr := range trips {
		wantPoints += tr.Len()
	}

	// Auto-compaction off: the test owns the compaction schedule.
	st := NewStore(g, nil, StoreConfig{CompactSegments: 1 << 30})
	for _, tr := range trips[:len(trips)-1] {
		st.IngestTrips(tr)
	}

	reached := make(chan struct{}, 8)
	resume := make(chan struct{})
	CompactBeforePublish = func() {
		reached <- struct{}{}
		<-resume
	}
	defer func() { CompactBeforePublish = nil }()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // compactor A: parks at the seam with its merge built
		defer wg.Done()
		st.Compact()
	}()
	<-reached
	go func() { // compactor B: with the fix it waits its turn behind A
		defer wg.Done()
		st.Compact()
	}()
	// Give B its chance to overlap (unfixed it runs straight through the
	// seam's already-signaled channel and publishes under A's feet), land
	// one more memtable, then release everyone.
	st.IngestTrips(trips[len(trips)-1])
	time.Sleep(50 * time.Millisecond)
	close(resume)
	wg.Wait()
	st.Wait()
	CompactBeforePublish = nil

	st.Compact()
	snap := st.Current()
	if snap.Segments() != 1 {
		t.Fatalf("%d segments after final compaction", snap.Segments())
	}
	if snap.NumPoints() != wantPoints {
		t.Fatalf("snapshot counts %d points, want %d", snap.NumPoints(), wantPoints)
	}
	// Every ingested point must still be reachable through the index — a
	// lost merge drops whole memtable segments from the published tree.
	if got := len(withinRadius(snap, geo.Pt(200, 100), 1e6)); got != wantPoints {
		t.Fatalf("index holds %d points, want %d", got, wantPoints)
	}
}
