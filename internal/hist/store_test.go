package hist

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

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

// TestStoreAutoCompaction: the write that would fill a shard's stack returns
// with that shard merged to one grid, its compaction count one higher and
// the store at the batch's own epoch; any other write adds one grid to each
// shard it touches. Two stores fed the same batches agree on Stats after
// every call, so the layout is a function of the batch sequence alone.
func TestStoreAutoCompaction(t *testing.T) {
	g, qi, _ := refWorld()
	trips := storeTrips()
	for _, n := range []int{1, 4} {
		cfg := ShardedConfig{Shards: n, Halo: 60}
		st, twin := NewShardedStore(g, nil, cfg), NewShardedStore(g, nil, cfg)
		prev, merges := st.Stats(), 0
		for k := 1; k <= 5*len(trips); k++ {
			tr := trips[k%len(trips)]
			ist := st.IngestTrips(tr)
			twin.IngestTrips(tr)
			got := st.Stats()
			if !reflect.DeepEqual(got, twin.Stats()) {
				t.Fatalf("shards=%d batch %d: stats %+v, a twin fed the same batches %+v", n, k, got, twin.Stats())
			}
			if ist.Epoch != uint64(k) || got.Epoch != uint64(k) {
				t.Fatalf("shards=%d batch %d: acknowledged at epoch %d, store at %d", n, k, ist.Epoch, got.Epoch)
			}
			for i, sh := range got.Shards {
				want := prev.Shards[i]
				switch {
				case sh.Epoch == want.Epoch:
				case want.Segments+1 == compactSegments:
					want.Segments, want.Compactions = 1, want.Compactions+1
					merges++
				default:
					want.Segments++
				}
				if sh.Segments != want.Segments || sh.Compactions != want.Compactions {
					t.Fatalf("shards=%d batch %d: shard %d at %d segments / %d compactions, want %d / %d",
						n, k, i, sh.Segments, sh.Compactions, want.Segments, want.Compactions)
				}
			}
			prev = got
		}
		if merges == 0 {
			t.Fatalf("shards=%d: no write filled a stack", n)
		}
		if got := len(withinRadius(st.Current(), qi.Pt, 60)); got == 0 {
			t.Fatalf("shards=%d: points lost in a merge", n)
		}
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

// TestStoreConcurrentIngestAndSearch is a -race smoke test: readers pin
// snapshots and search while writers ingest and compact.
func TestStoreConcurrentIngestAndSearch(t *testing.T) {
	g, qi, qj := refWorld()
	st := NewStore(g, nil, StoreConfig{})
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
			var s Searcher // warm across generations, as a pooled engine arena is
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
				snap = st.Current()
				if got, want := s.Search(snap, qi, qj, SearchParams{Phi: 60, SpliceEps: 50}, nil, nil), References(snap, qi, qj, SearchParams{Phi: 60, SpliceEps: 50}); !slices.Equal(got, want) {
					t.Errorf("a warm searcher answered %+v, a fresh one %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st.Current().NumTrajs() != len(trips) {
		t.Fatalf("store holds %d trajs, want %d", st.Current().NumTrajs(), len(trips))
	}
}

// TestStoreConcurrentCompaction: Compact calls racing each other and writers
// whose batches fill stacks (and merge them) must serialize. A merge built
// against a stale stack would publish an index missing segments, so every
// snapshot a reader sees must reach each point it counts, and the last
// Compact must leave one grid per shard over every point.
func TestStoreConcurrentCompaction(t *testing.T) {
	g, _, _ := refWorld()
	trips := storeTrips()
	st := NewShardedStore(g, nil, ShardedConfig{Shards: 4, Halo: 60})
	reachable := func(snap *Snapshot) int { return len(withinRadius(snap, geo.Pt(200, 100), 1e6)) }
	var writers, others sync.WaitGroup
	done := make(chan struct{})
	wantPoints := 0
	for w := 0; w < 2; w++ {
		for _, tr := range trips {
			wantPoints += compactSegments * tr.Len()
		}
		writers.Add(1)
		go func() {
			defer writers.Done()
			for range compactSegments {
				st.IngestTrips(trips...)
			}
		}()
	}
	for r := 0; r < 3; r++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if r == 0 {
					if snap := st.Snapshot(); reachable(snap) != snap.NumPoints() {
						t.Errorf("epoch %d: index reaches %d points, snapshot counts %d", snap.Epoch(), reachable(snap), snap.NumPoints())
						return
					}
				} else {
					st.Compact()
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	others.Wait()

	st.Compact()
	snap := st.Snapshot()
	if snap.Segments() != 4 || snap.NumPoints() != wantPoints || reachable(snap) != wantPoints {
		t.Fatalf("after the final compaction: %d segments, %d points counted, %d reachable; want 4, %d, %d",
			snap.Segments(), snap.NumPoints(), reachable(snap), wantPoints, wantPoints)
	}
}
