package hist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

// shardedWorldTrips builds trips that straddle the 2×2 partition lines of
// refWorld's bbox, with points exactly ON partition lines and exactly AT
// halo edges — the floating-point worst case for ownership dedup — plus
// hostile coordinates: ±1e300, which a JSON body can carry and which lies
// far beyond any cell, and NaN, which lies in no box.
func shardedWorldTrips(lineX, lineY, halo float64) []*traj.Trajectory {
	nan := math.NaN()
	return []*traj.Trajectory{
		// Horizontal crossing with a point exactly on the vertical line.
		lineTraj("bx", geo.Pt(lineX-150, 10), geo.Pt(lineX, 10), geo.Pt(lineX+150, 10)),
		// Vertical crossing with a point exactly on the horizontal line.
		lineTraj("by", geo.Pt(40, lineY-150), geo.Pt(40, lineY), geo.Pt(40, lineY+150)),
		// Points exactly at the halo edges on both sides of the line.
		lineTraj("bh", geo.Pt(lineX-halo, 20), geo.Pt(lineX, 20), geo.Pt(lineX+halo, 20)),
		// A point exactly on the grid's corner crossing.
		lineTraj("bc", geo.Pt(lineX-60, lineY-60), geo.Pt(lineX, lineY), geo.Pt(lineX+60, lineY+60)),
		// Fully inside one cell (control).
		lineTraj("in", geo.Pt(50, 30), geo.Pt(150, 30), geo.Pt(250, 30)),
		lineTraj("huge", geo.Pt(1e300, 50), geo.Pt(-1e300, 50)),
		lineTraj("nan", geo.Pt(nan, nan), geo.Pt(lineX+5, 30), geo.Pt(nan, 30), geo.Pt(30, nan)),
	}
}

func sortRefs(refs []PointRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Traj != refs[j].Traj {
			return refs[i].Traj < refs[j].Traj
		}
		return refs[i].Idx < refs[j].Idx
	})
}

// TestShardedBoundaryDedup: points on partition lines and at halo edges are
// returned exactly once by VisitBox — bare, and under the radius test every
// range query applies on top of it — matching a one-shard store over the same
// trips, for queries centered on the boundaries. A point at ±1e300 is found
// by every store (its home is the boundary cell whose halo holds it, not
// whatever an overflowing float→int conversion says), and a NaN point by
// none.
func TestShardedBoundaryDedup(t *testing.T) {
	g, _, _ := refWorld()
	bb := g.BBox()
	for _, n := range []int{2, 4, 9} {
		for _, halo := range []float64{0, 60} {
			part := newPartition(bb, n, halo)
			nx, ny := part.nx, part.ny
			lineX := bb.Min.X + (bb.Max.X-bb.Min.X)/float64(max(nx, 1))
			lineY := bb.Min.Y + (bb.Max.Y-bb.Min.Y)/float64(max(ny, 1))
			if nx == 1 {
				lineX = bb.Min.X + 100 // no vertical line: arbitrary interior x
			}
			if ny == 1 {
				lineY = bb.Min.Y + 100
			}
			trips := shardedWorldTrips(lineX, lineY, halo)

			oracle := NewStore(g, nil, StoreConfig{})
			oracle.IngestTrips(trips...)
			sh := NewShardedStore(g, nil, ShardedConfig{Shards: n, Halo: halo})
			sh.IngestTrips(trips...)

			huge := []geo.Point{geo.Pt(1e300, 50), geo.Pt(-1e300, 50)}
			centers := append([]geo.Point{
				geo.Pt(lineX, 10), geo.Pt(lineX, 20), geo.Pt(40, lineY),
				geo.Pt(lineX, lineY), geo.Pt(lineX-halo, 20), geo.Pt(lineX+halo, 20),
				geo.Pt(math.NaN(), 30),
			}, huge...)
			radii := []float64{1, halo / 2, halo, halo + 1, 2*halo + 10, 500}
			ov, sv := oracle.Current(), sh.Current()
			for _, c := range centers {
				for _, r := range radii {
					if r <= 0 {
						continue
					}
					want := withinRadius(ov, c, r)
					got := withinRadius(sv, c, r)
					sortRefs(want)
					sortRefs(got)
					if slices.Contains(huge, c) && len(want) != 1 {
						t.Fatalf("n=%d halo=%v withinRadius(%v,%v): one-shard store finds %d refs, want the one point there",
							n, halo, c, r, len(want))
					}
					if len(got) != len(want) {
						t.Fatalf("n=%d halo=%v withinRadius(%v,%v): %d refs, want %d",
							n, halo, c, r, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("n=%d halo=%v withinRadius(%v,%v): ref %d = %v, want %v",
								n, halo, c, r, i, got[i], want[i])
						}
					}
					for i := 1; i < len(got); i++ {
						if got[i] == got[i-1] {
							t.Fatalf("n=%d halo=%v withinRadius(%v,%v): duplicate ref %v",
								n, halo, c, r, got[i])
						}
					}
					for _, v := range []View{ov, sv} {
						v.VisitBox(geo.BBoxAround(c, r), func(_ geo.Point, pr PointRef) bool {
							if pt := pointOf(v, pr); math.IsNaN(pt.X) || math.IsNaN(pt.Y) {
								t.Fatalf("n=%d halo=%v VisitBox around %v reported the NaN point %v", n, halo, c, pr)
							}
							return true
						})
					}

					box := geo.BBoxAround(c, r)
					var wantV, gotV []PointRef
					ov.VisitBox(box, func(_ geo.Point, pr PointRef) bool { wantV = append(wantV, pr); return true })
					sv.VisitBox(box, func(pt geo.Point, pr PointRef) bool {
						if pt != pointOf(sv, pr) {
							t.Fatalf("n=%d halo=%v VisitBox(%v) reported %v at %v, stored at %v", n, halo, box, pr, pt, pointOf(sv, pr))
						}
						gotV = append(gotV, pr)
						return true
					})
					sortRefs(wantV)
					sortRefs(gotV)
					if len(gotV) != len(wantV) {
						t.Fatalf("n=%d halo=%v VisitBox(%v): %d refs, want %d",
							n, halo, box, len(gotV), len(wantV))
					}
					for i := range gotV {
						if gotV[i] != wantV[i] {
							t.Fatalf("n=%d halo=%v VisitBox(%v): ref %d = %v, want %v",
								n, halo, box, i, gotV[i], wantV[i])
						}
					}
					// Early-stop contract: the traversal halts after one point.
					seen := 0
					sv.VisitBox(box, func(geo.Point, PointRef) bool { seen++; return false })
					if len(gotV) > 0 && seen != 1 {
						t.Fatalf("n=%d halo=%v VisitBox early stop visited %d points", n, halo, seen)
					}
				}
			}
		}
	}
}

// TestShardedStoreMatchesStoreSearch: a store at any required shard count
// answers the reference search identically (by content) to a bulk archive,
// for a zero and a query-sized halo, random ingest orders, and before/after
// compaction.
func TestShardedStoreMatchesStoreSearch(t *testing.T) {
	g, qi, qj := refWorld()
	trips := storeTrips()
	arch := NewArchive(g, trips)
	sp := SearchParams{Phi: 60, SpliceEps: 50}
	want := References(arch, qi, qj, sp)
	if len(want) == 0 {
		t.Fatal("fixture yields no references")
	}

	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 9} {
		for _, halo := range []float64{0, 60} {
			perm := rng.Perm(len(trips))
			st := NewShardedStore(g, nil, ShardedConfig{Shards: n, Halo: halo})
			for _, i := range perm {
				st.IngestTrips(trips[i])
			}
			for phase := 0; phase < 2; phase++ {
				snap := st.Current()
				got := References(snap, qi, qj, sp)
				if len(got) != len(want) {
					t.Fatalf("n=%d halo=%v phase %d: %d refs, want %d", n, halo, phase, len(got), len(want))
				}
				for i := range got {
					if !refEqual(snap, got[i], arch, want[i]) {
						t.Fatalf("n=%d halo=%v phase %d: ref %d differs", n, halo, phase, i)
					}
				}
				st.Compact()
				st.Wait()
			}
		}
	}
}

// TestShardedStoreStats: store-wide counts are global (replicas not double
// counted), per-shard summaries expose the replication, and compaction
// collapses every shard to its single base segment.
func TestShardedStoreStats(t *testing.T) {
	g, _, _ := refWorld()
	st := NewShardedStore(g, nil, ShardedConfig{Shards: 4, Halo: 120})
	trips := storeTrips()
	points := 0
	for _, tr := range trips {
		points += tr.Len()
	}
	ist := st.IngestTrips(trips...)
	if ist.Trips != len(trips) || ist.Points != points {
		t.Fatalf("ingest stats %+v, want %d trips / %d points", ist, len(trips), points)
	}
	snap := st.Snapshot()
	if snap.NumTrajs() != len(trips) || snap.NumPoints() != points {
		t.Fatalf("store holds %d/%d, want %d/%d",
			snap.NumTrajs(), snap.NumPoints(), len(trips), points)
	}
	stats := st.Stats()
	if len(stats.Shards) != 4 {
		t.Fatalf("stats report %d shards", len(stats.Shards))
	}
	repTrips := 0
	for _, ss := range stats.Shards {
		repTrips += ss.Trajs
	}
	if repTrips < len(trips) {
		t.Fatalf("per-shard trips sum %d < %d global", repTrips, len(trips))
	}
	if stats.Trajs != len(trips) || stats.Points != points {
		t.Fatalf("store stats %+v", stats)
	}
	st.Compact()
	st.Wait()
	if segs := st.Current().Segments(); segs != 4 {
		t.Fatalf("post-compaction segments = %d, want 4 (one per shard)", segs)
	}
}

// TestShardedEpochFingerprint: the store epoch advances exactly once per
// admitted batch, each batch advances the epochs of the shards it touched,
// and a bulk archive carries the epochs of an untouched one-shard store.
func TestShardedEpochFingerprint(t *testing.T) {
	g, _, _ := refWorld()
	st := NewShardedStore(g, nil, ShardedConfig{Shards: 4, Halo: 0})
	s0 := st.Snapshot()
	// Two batches localized to opposite corners: different shards ingest.
	st.IngestTrips(lineTraj("a", geo.Pt(10, 10), geo.Pt(20, 10)))
	s1 := st.Snapshot()
	st.IngestTrips(lineTraj("b", geo.Pt(590, 390), geo.Pt(580, 390)))
	s2 := st.Snapshot()
	if s1.Epoch() != s0.Epoch()+1 || s2.Epoch() != s1.Epoch()+1 {
		t.Fatalf("epochs %d,%d,%d", s0.Epoch(), s1.Epoch(), s2.Epoch())
	}
	e0, e1, e2 := shardEpochs(s0), shardEpochs(s1), shardEpochs(s2)
	if slices.Equal(e0, e1) || slices.Equal(e1, e2) {
		t.Fatalf("shard epochs %v, %v, %v: a single-shard ingest moved none", e0, e1, e2)
	}
	a, s := NewArchive(g, nil), NewStore(g, nil, StoreConfig{}).Snapshot()
	if a.Epoch() != s.Epoch() || !slices.Equal(shardEpochs(a), shardEpochs(s)) {
		t.Fatalf("archive epoch %d shards %v, one-shard store %d shards %v",
			a.Epoch(), shardEpochs(a), s.Epoch(), shardEpochs(s))
	}
}

// TestOneEpochOneGeneration: within one store an epoch names exactly one
// generation — one per-shard epoch vector and one content — across ingests
// localized to different shards, background and explicit compactions (which
// publish new snapshots under an old epoch), a reader polling concurrently,
// and a durable copy fed the same batches and reopened. It is why the
// epoch-tagged SearchCache keys on the epoch alone.
func TestOneEpochOneGeneration(t *testing.T) {
	g, _, _ := refWorld()
	corners := []geo.Point{geo.Pt(10, 10), geo.Pt(590, 10), geo.Pt(10, 390), geo.Pt(590, 390)}
	var batches [][]*traj.Trajectory
	for i := 0; i < 14; i++ {
		c := corners[(i*3)%len(corners)] // 0, 3, 2, 1, …: every shard, out of order
		d := float64(i%3+1) * 10
		batches = append(batches, []*traj.Trajectory{lineTraj(fmt.Sprintf("b%d", i),
			c, geo.Pt(c.X+d, c.Y), geo.Pt(c.X+d, c.Y+d))})
	}

	type generation struct{ shards, content string }
	var mu sync.Mutex
	seen := map[uint64]generation{}
	observe := func(where string, v *Snapshot) {
		gen := generation{fmt.Sprint(shardEpochs(v)), viewKey(v)}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[v.Epoch()]; ok && prev != gen {
			t.Errorf("%s: epoch %d names two generations: shards %s vs %s, content equal %v",
				where, v.Epoch(), prev.shards, gen.shards, prev.content == gen.content)
		}
		seen[v.Epoch()] = gen
	}

	cfg := ShardedConfig{Shards: 4, StoreConfig: StoreConfig{CompactSegments: 2}}
	mem := NewShardedStore(g, nil, cfg)
	dir := t.TempDir()
	dur, _ := openForTest(t, dir, nil, cfg)
	observe("memory", mem.Snapshot())
	observe("durable", dur.Snapshot())
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a reader racing every publication, compactions included
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				observe("reader", mem.Snapshot())
			}
		}
	}()
	for i, b := range batches {
		mem.IngestTrips(b...)
		observe("memory", mem.Snapshot())
		dur.IngestTrips(b...)
		observe("durable", dur.Snapshot())
		if i%5 == 4 {
			mem.Compact()
			mem.Wait()
			observe("memory, compacted", mem.Snapshot())
		}
	}
	close(done)
	wg.Wait()
	mem.Wait()
	dur.Wait()
	observe("memory, settled", mem.Snapshot())
	observe("durable, settled", dur.Snapshot())
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, _ := openForTest(t, dir, nil, cfg)
	defer reopened.Close()
	observe("reopened", reopened.Snapshot())
	if got := reopened.Snapshot().Epoch(); got != uint64(len(batches)) {
		t.Fatalf("reopened at epoch %d, want %d", got, len(batches))
	}
	if len(seen) != len(batches)+1 {
		t.Fatalf("observed %d epochs, want %d", len(seen), len(batches)+1)
	}
	if c := mem.Stats().Compactions; c == 0 {
		t.Fatal("no compaction ran")
	}
}

// TestShardedSearchCacheComposite: the memo distinguishes generations of a
// sharded store — a reader pinned to an old generation is served unmemoized
// after a sibling-shard ingest, and current-generation queries miss (never
// serving stale results) then re-memoize on their second miss.
func TestShardedSearchCacheComposite(t *testing.T) {
	g, qi, qj := refWorld()
	st := NewShardedStore(g, nil, ShardedConfig{Shards: 4, Halo: 60})
	st.IngestTrips(storeTrips()[:3]...)
	old := st.Current()
	c := NewSearchCache(0)
	sp := SearchParams{Phi: 60, SpliceEps: 50}

	admittedRefs(c, st, qi, qj, sp)
	if c.Len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", c.Len())
	}
	// Ingest far from the query corridor: only a sibling shard's epoch
	// moves, but the store's generation — and thus the cache key — must
	// change anyway.
	st.IngestTrips(lineTraj("far", geo.Pt(590, 390), geo.Pt(580, 380)))
	admittedRefs(c, st, qi, qj, sp)
	if _, m := c.Stats(); m != 4 {
		t.Fatalf("misses = %d, want 4 (stale generation must not hit)", m)
	}
	want := References(old, qi, qj, sp)
	for i := 0; i < 2; i++ {
		got := c.ReferencesOn(t.Context(), old, qi, qj, sp, new(Searcher), nil)
		if len(got) != len(want) {
			t.Fatalf("pinned-generation answer has %d refs, want %d", len(got), len(want))
		}
	}
	if c.Len() != 1 {
		t.Fatalf("stale generation's result was memoized: %d entries", c.Len())
	}
}

// TestShardedRefreshAfterCompaction: a compaction pass publishes a new
// generation with every shard's merged segment stack while preserving epoch,
// shard epochs and content.
func TestShardedRefreshAfterCompaction(t *testing.T) {
	g, qi, _ := refWorld()
	st := NewShardedStore(g, nil, ShardedConfig{Shards: 2, Halo: 60,
		StoreConfig: StoreConfig{CompactSegments: 1 << 30}})
	for _, tr := range storeTrips() {
		st.IngestTrips(tr)
	}
	before := st.Snapshot()
	segsBefore := before.Segments()
	st.Compact()
	st.Wait()
	after := st.Snapshot()
	if after == before {
		t.Fatal("compaction published no new generation")
	}
	if after.Epoch() != before.Epoch() || !slices.Equal(shardEpochs(after), shardEpochs(before)) {
		t.Fatal("compaction changed the generation identity")
	}
	if after.Segments() >= segsBefore || after.Segments() != 2 {
		t.Fatalf("segments %d -> %d, want 2", segsBefore, after.Segments())
	}
	a, b := withinRadius(before, qi.Pt, 200), withinRadius(after, qi.Pt, 200)
	sortRefs(a)
	sortRefs(b)
	if len(a) != len(b) {
		t.Fatalf("content changed across refresh: %d vs %d hits", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d changed across refresh: %v vs %v", i, a[i], b[i])
		}
	}
}
