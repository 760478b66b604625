// Package hist implements the historical-trajectory archive and the
// reference-trajectory search of §III-A: radius-φ range queries over a
// spatial index of all archive GPS points yield simple reference
// trajectories (Definition 6), and an on-line spatial join over the leftover
// candidates yields spliced reference trajectories (Definition 7).
//
// The archive is one immutable, epoch-numbered generation, Snapshot (alias
// Archive), and one live store, Store, that admits new trips online and
// publishes a fresh Snapshot per mutation. A snapshot is a partition of the
// plane into N shards — N = 1 unless configured otherwise, and always 1 for
// NewArchive — each an LSM-style stack of immutable segments over the trips
// that touch its halo cell. A segment is an internal/grid cell grid over
// the points, built by counting sort (newSegment) — the same index the road
// network keeps its segments in; the paper's R-tree is not needed for a
// question whose answer order does not matter. Range queries take the
// single-shard fast path when the search box fits one halo cell and
// otherwise scatter over the overlapping shards with home-ownership dedup,
// so answers never depend on N. A store opened with OpenShardedStore is
// also durable: one write-ahead log, independent of N.
package hist

import (
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// PointRef addresses one GPS point in the archive.
type PointRef struct {
	Traj int // index into the archive's trajectory list
	Idx  int // point index within that trajectory
}

// Snapshot is one immutable generation of the historical archive: a set of
// trajectories spatially indexed for search (§II-B.1 "Indexing"; cell grids
// here, where the paper names an R-tree), partitioned into shards. A
// snapshot built by NewArchive is one shard holding a single grid;
// snapshots published by a Store additionally carry one grid per ingest
// batch since the last compaction. It implements View and is its own
// constant Source. Every method is safe for unsynchronized concurrent use —
// nothing is mutated after construction.
type Snapshot struct {
	g      *roadnet.Graph
	part   *partition
	reg    *obs.Registry // receives the range-query routing metrics; may be nil
	clip   geo.BBox      // the graph's bbox, which every grid's extent is clipped to
	shards []shard
	trajs  []*traj.Trajectory
	// The trip indices by (canonKey, index), and each trip's dense rank in
	// that order (equal keys share one); extended at ingest by canonRanks.
	order, rank []int32
	points      int    // distinct indexed GPS points (halo replicas counted once)
	epoch       uint64 // publication counter: one bump per admitted ingest batch
}

// shard is one partition cell of a snapshot, as immutable as the snapshot
// holding it: its segment stack indexes every point of the trips that touch
// its halo cell, under global PointRefs.
type shard struct {
	// segs are the grid segments, oldest first: the base grid followed by
	// one grid per un-compacted ingest batch that touched the shard. Each
	// indexed point lives in exactly one segment.
	segs        []*grid.Grid[PointRef]
	trips       []int  // global indices of the indexed trips, ascending
	points      int    // indexed GPS points
	epoch       uint64 // ingest batches that touched the shard
	compactions uint64 // merges of the segment stack
}

// newSegment grids every point of the trips ids names under its global
// PointRef, each cell in (trip, point) order. The extent is clipped to clip
// (the graph's bbox), so off-map noise clamps into the boundary cells, as
// the partition's cells do.
func newSegment(trajs []*traj.Trajectory, ids []int, clip geo.BBox) *grid.Grid[PointRef] {
	return grid.New(clip, func(yield func(geo.BBox, PointRef)) {
		for _, ti := range ids {
			for pi, p := range trajs[ti].Points {
				yield(geo.BBox{Min: p.Pt, Max: p.Pt}, PointRef{Traj: ti, Idx: pi})
			}
		}
	})
}

// visit calls fn with the location and the ref of every indexed point
// intersecting box and reports whether the walk ran to the end (fn never
// returned false).
func (sh *shard) visit(box geo.BBox, fn func(geo.Point, PointRef) bool) bool {
	for _, seg := range sh.segs {
		if !seg.Visit(box, fn) {
			return false
		}
	}
	return true
}

// Archive is the historical name of Snapshot, kept as an alias so bulk
// construction sites and tests read naturally.
type Archive = Snapshot

// NewArchive bulk-indexes trajs over the road network g as epoch 0 of a
// single shard.
func NewArchive(g *roadnet.Graph, trajs []*traj.Trajectory) *Archive {
	return newSnapshot(g, newPartition(geo.BBox{}, 1, 0), nil, trajs)
}

// newSnapshot indexes seed as epoch 0 over part: every shard grids the seed
// trips that touch its halo cell into its one base segment.
func newSnapshot(g *roadnet.Graph, part *partition, reg *obs.Registry, seed []*traj.Trajectory) *Snapshot {
	s := &Snapshot{g: g, part: part, reg: reg, clip: g.BBox(), shards: make([]shard, part.N()), trajs: seed}
	s.order, s.rank = canonRanks(seed, nil, nil)
	var ids []int
	for gi, tr := range seed {
		s.points += tr.Len()
		ids = part.assign(ids[:0], tr)
		for _, i := range ids {
			s.shards[i].trips = append(s.shards[i].trips, gi)
			s.shards[i].points += tr.Len()
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.segs = []*grid.Grid[PointRef]{newSegment(seed, sh.trips, s.clip)}
	}
	return s
}

// FNV-1a, shared by the seed fingerprint and the memo's doorkeeper.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds v's eight bytes (little-endian, low byte first) into h.
func fnvMix(h, v uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		h ^= (v >> shift) & 0xff
		h *= fnvPrime
	}
	return h
}

// Current implements Source: a snapshot is its own, constant, generation.
func (s *Snapshot) Current() View { return s }

// Graph returns the road network the archive is collected over.
func (s *Snapshot) Graph() *roadnet.Graph { return s.g }

// Epoch identifies this archive generation: the number of admitted ingest
// batches, bumped once per batch however many shards it touched (0 for
// bulk-built snapshots).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Segments returns the grid segment count summed over the shards (one per
// shard after a bulk build or compaction, one extra per un-compacted ingest
// batch that touched a shard).
func (s *Snapshot) Segments() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].segs)
	}
	return n
}

// NumPoints returns the number of distinct indexed GPS points (halo replicas
// are not double counted).
func (s *Snapshot) NumPoints() int { return s.points }

// NumTrajs returns the number of archived trajectories.
func (s *Snapshot) NumTrajs() int { return len(s.trajs) }

// Traj returns archived trajectory i.
func (s *Snapshot) Traj(i int) *traj.Trajectory { return s.trajs[i] }

// CanonRank returns trajectory i's rank in canonical order.
func (s *Snapshot) CanonRank(i int) int32 { return s.rank[i] }

// WithinRadius returns the archive points within radius r of p, in arbitrary
// order (none for a negative or NaN r): VisitBox plus the exact distance test,
// as a slice. The reference search folds the same walk into its own scratch.
func (s *Snapshot) WithinRadius(p geo.Point, r float64) []PointRef {
	if !(r >= 0) {
		return nil
	}
	rad := newRadius(r)
	var out []PointRef
	s.VisitBox(geo.BBoxAround(p, r), func(pt geo.Point, ref PointRef) bool {
		if _, in := rad.contains(pt, p); in {
			out = append(out, ref)
		}
		return true
	})
	return out
}

// radius is the test pt.Dist(q) <= phi, decided on Dist2 where that is
// safe: both are within a few ulps of exact, so a squared distance more
// than a relative 1e-9 from φ² gives Dist's verdict, and only hits inside
// that band pay for math.Hypot. The band is off when φ is NaN, negative,
// tiny (≤ 1e-100: φ² nears underflow) or huge (≥ 1e150: φ² nears overflow).
type radius struct{ phi, in2, out2 float64 }

func newRadius(phi float64) radius {
	if !(phi > 1e-100 && phi < 1e150) {
		return radius{phi, -1, math.Inf(1)}
	}
	return radius{phi, phi * phi * (1 - 1e-9), phi * phi * (1 + 1e-9)}
}

// contains returns pt.Dist2(q) and whether pt.Dist(q) <= r.phi.
func (r radius) contains(pt, q geo.Point) (float64, bool) {
	d2 := pt.Dist2(q)
	return d2, d2 < r.in2 || !(d2 > r.out2) && pt.Dist(q) <= r.phi // NaN d2 asks Dist
}

// VisitBox calls fn with the location, read from the grid, and the ref of
// every archive point intersecting box, each exactly once; fn returning
// false stops the traversal. A box strictly inside one halo cell is
// answered from that single shard (every point there is indexed locally,
// each at most once); otherwise the query scatters over the shards whose
// own cell overlaps the box, in ascending order and sequentially (a range
// walk takes tens of microseconds), and delivers only hits the queried
// shard is home to: halo replicas dedup exactly, by location alone.
func (s *Snapshot) VisitBox(box geo.BBox, fn func(geo.Point, PointRef) bool) {
	if home, ok := s.part.Covering(box); ok {
		s.observeFanout(1, true)
		s.shards[home].visit(box, fn)
		return
	}
	ids := s.part.Overlapping(nil, box)
	s.observeFanout(len(ids), false)
	for _, id := range ids {
		if !s.shards[id].visit(box, func(pt geo.Point, r PointRef) bool {
			return s.part.Home(pt) != id || fn(pt, r)
		}) {
			return
		}
	}
}

// observeFanout records one range query's shard fan-out (1µs per shard in
// the log-bucketed histogram) and which routing path served it.
func (s *Snapshot) observeFanout(n int, fast bool) {
	if s.reg == nil {
		return
	}
	if fast {
		s.reg.Counter(obs.CounterQueryFastPath).Inc()
	} else {
		s.reg.Counter(obs.CounterQueryScatter).Inc()
	}
	s.reg.Histogram(obs.HistScatterFanout).Observe(time.Duration(n) * time.Microsecond)
}

// Preprocess runs the offline preprocessing of §II-B.1 on raw GPS logs:
// speed-infeasible outlier fixes are removed (vmax in m/s; pass 0 to
// skip), stay-point detection splits each log into effective trips, and
// trips with fewer than minPoints samples are dropped. The remaining
// preprocessing step, map-matching the archive points, is done by
// core.Engine: once per trajectory, on its first use as a reference.
func Preprocess(logs []*traj.Trajectory, sp traj.StayPointParams, minPoints int, vmax float64) []*traj.Trajectory {
	var out []*traj.Trajectory
	for _, l := range logs {
		if vmax > 0 {
			l = traj.RemoveOutliers(l, vmax)
		}
		out = append(out, traj.PartitionTrips(l, sp, minPoints)...)
	}
	return out
}
