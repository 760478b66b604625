// Package hist implements the historical-trajectory archive and the
// reference-trajectory search of §III-A: radius-φ range queries over an
// R-tree of all archive GPS points yield simple reference trajectories
// (Definition 6), and an on-line spatial join over the leftover candidates
// yields spliced reference trajectories (Definition 7).
//
// The archive comes in two flavors sharing the read-only View interface:
// Snapshot (alias Archive) is one immutable, epoch-numbered generation, and
// Store is the live archive — an LSM-style stack of R-tree segments that
// admits new trips online and publishes a fresh Snapshot per mutation.
package hist

import (
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/rtree"
	"repro/internal/traj"
)

// PointRef addresses one GPS point in the archive.
type PointRef struct {
	Traj int // index into the archive's trajectory list
	Idx  int // point index within that trajectory
}

// Snapshot is one immutable generation of the historical archive: a set of
// trajectories spatially indexed for search (§II-B.1 "Indexing": an R-tree
// organizes all the GPS points). A snapshot built by NewArchive holds a
// single bulk-loaded tree; snapshots published by a Store additionally carry
// the memtable segments of trips ingested since the last compaction. Every
// method is safe for unsynchronized concurrent use — nothing is mutated
// after construction.
type Snapshot struct {
	G     *roadnet.Graph
	Trajs []*traj.Trajectory

	// segs are the R-tree segments, oldest first: the bulk-loaded base tree
	// followed by one dynamic memtable per un-compacted ingest batch. Each
	// indexed point lives in exactly one segment.
	segs   []*rtree.Tree[PointRef]
	points int
	epoch  uint64

	// basePts is how many of points the base segment covers; points-basePts
	// is the memtable backlog the CompactPoints threshold watches.
	basePts int
}

// Archive is the historical name of Snapshot, kept as an alias so bulk
// construction sites and tests read naturally.
type Archive = Snapshot

// NewArchive bulk-indexes trajs over the road network g as epoch 0.
func NewArchive(g *roadnet.Graph, trajs []*traj.Trajectory) *Archive {
	entries := pointEntries(trajs, 0)
	return &Snapshot{
		G:       g,
		Trajs:   trajs,
		segs:    []*rtree.Tree[PointRef]{rtree.Bulk(entries)},
		points:  len(entries),
		basePts: len(entries),
	}
}

// pointEntries flattens the GPS points of trajs into R-tree entries whose
// trajectory indices start at base.
func pointEntries(trajs []*traj.Trajectory, base int) []rtree.Entry[PointRef] {
	var entries []rtree.Entry[PointRef]
	for ti, tr := range trajs {
		for pi, p := range tr.Points {
			entries = append(entries, rtree.Entry[PointRef]{
				Box:  geo.BBox{Min: p.Pt, Max: p.Pt},
				Item: PointRef{Traj: base + ti, Idx: pi},
			})
		}
	}
	return entries
}

// Graph returns the road network the archive is collected over.
func (s *Snapshot) Graph() *roadnet.Graph { return s.G }

// Epoch identifies this archive generation (0 for bulk-built snapshots).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Segments returns the number of R-tree segments (1 after bulk build or
// compaction, one extra per un-compacted ingest batch).
func (s *Snapshot) Segments() int { return len(s.segs) }

// NumPoints returns the number of indexed GPS points.
func (s *Snapshot) NumPoints() int { return s.points }

// NumTrajs returns the number of archived trajectories.
func (s *Snapshot) NumTrajs() int { return len(s.Trajs) }

// Traj returns archived trajectory i.
func (s *Snapshot) Traj(i int) *traj.Trajectory { return s.Trajs[i] }

// Point resolves a PointRef.
func (s *Snapshot) Point(r PointRef) traj.GPSPoint {
	return s.Trajs[r.Traj].Points[r.Idx]
}

// WithinRadius returns the archive points within radius r of p, in arbitrary
// order (none for a negative or NaN r): VisitBox plus the exact distance test,
// as a slice. The reference search folds the same walk into its own scratch.
func (s *Snapshot) WithinRadius(p geo.Point, r float64) []PointRef {
	if !(r >= 0) {
		return nil
	}
	var out []PointRef
	s.VisitBox(geo.BBoxAround(p, r), func(ref PointRef) bool {
		if s.Point(ref).Pt.Dist(p) <= r {
			out = append(out, ref)
		}
		return true
	})
	return out
}

// VisitBox calls fn for every archive point intersecting box; fn returning
// false stops the traversal.
func (s *Snapshot) VisitBox(box geo.BBox, fn func(PointRef) bool) {
	for _, seg := range s.segs {
		stopped := false
		seg.Visit(box, func(e rtree.Entry[PointRef]) bool {
			if !fn(e.Item) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Current implements Source: a snapshot is its own, constant, generation.
func (s *Snapshot) Current() View { return s }

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
