package hist

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// View is the read-only surface of one archive generation. Everything that
// consumes historical trajectories — the reference search and core.Engine
// with its query memo — works against this interface; *Snapshot implements it,
// and tests wrap it to count or perturb range walks. A View is immutable:
// all methods may be called concurrently and return identical answers for
// the lifetime of the value.
type View interface {
	// Graph returns the road network the archive is collected over.
	Graph() *roadnet.Graph
	// Epoch identifies this archive generation. A Store increments it on
	// every admitted batch, under the one lock that publishes snapshots, and
	// compaction keeps it, so within one Store an epoch names one content;
	// core's epoch-tagged query memo keys on it alone. Bulk-built snapshots
	// are epoch 0.
	Epoch() uint64
	// NumPoints returns the number of indexed GPS points.
	NumPoints() int
	// Segments returns the number of index segments (cell grids) backing
	// the view, summed over its shards (one per shard after a bulk build or
	// full compaction, one extra per un-compacted ingest batch a shard took).
	Segments() int
	// NumTrajs returns the number of archived trajectories.
	NumTrajs() int
	// Traj returns archived trajectory i (0 <= i < NumTrajs).
	Traj(i int) *traj.Trajectory
	// CanonRank returns trajectory i's rank in canonical order (see
	// canonKey): sorting by (rank, index) is sorting by (key, index), and
	// trajectories with equal keys share a rank.
	CanonRank(i int) int32
	// VisitBox calls fn with the location and the ref of every archive
	// point whose location intersects box, each exactly once, in arbitrary
	// order; fn returning false stops it. The one range primitive: a radius
	// query adds its own distance test.
	VisitBox(box geo.BBox, fn func(geo.Point, PointRef) bool)
}

// Source yields the current archive generation. A *Snapshot is its own,
// constant, Source; a *Store returns the latest published generation.
// Readers that need a consistent view across several operations — an
// inference pinning one generation for its whole lifetime — call Current
// once and hold the view.
type Source interface {
	Current() View
}

// canonKey orders archive trajectories by content rather than storage
// position. Reference-search candidate iteration feeds tie-breaking all the
// way down the inference pipeline (traverse-graph construction, Yen's
// equal-weight paths, K-GRI partial ordering), so iterating in storage-index
// order would make inference results depend on ingestion history. Sorting
// candidates by this key instead makes a live Store's answers byte-identical
// to a bulk-built archive holding the same trips in any order, as long as
// trajectory identities (ID plus start point) are distinct — the storage
// index remains only as the final tie-break for truly indistinguishable
// trajectories. Searches read the order as View.CanonRank, published once
// per snapshot (canonRanks).
type canonKey struct {
	id         string
	t0, x0, y0 float64
	n          int
}

func canonKeyOf(tr *traj.Trajectory) canonKey {
	k := canonKey{id: tr.ID, n: tr.Len()}
	if tr.Len() > 0 {
		p := tr.Points[0]
		k.t0, k.x0, k.y0 = p.T, p.Pt.X, p.Pt.Y
	}
	return k
}

// compare returns -1, 0 or +1 ordering k against o.
func (k canonKey) compare(o canonKey) int {
	if c := strings.Compare(k.id, o.id); c != 0 {
		return c
	}
	return cmp.Or(cmp.Compare(k.t0, o.t0), cmp.Compare(k.x0, o.x0), cmp.Compare(k.y0, o.y0), cmp.Compare(k.n, o.n))
}

// canonRanks extends the canonical order and ranks of trajs[:len(order)] to
// all of trajs, in fresh slices. Each new trip, in (key, index) order, is
// placed by binary search after the old trips with a key not above its own
// (its index exceeds theirs); ranks are then renumbered densely, comparing
// keys only next to a new trip, since neighboring old trips share a key
// exactly when they shared a rank.
func canonRanks(trajs []*traj.Trajectory, order, rank []int32) ([]int32, []int32) {
	old := int32(len(order))
	byKey := func(a, b int32) int {
		return cmp.Or(canonKeyOf(trajs[a]).compare(canonKeyOf(trajs[b])), cmp.Compare(a, b))
	}
	batch := make([]int32, len(trajs)-len(order))
	for k := range batch {
		batch[k] = old + int32(k)
	}
	slices.SortFunc(batch, byKey)
	next := make([]int32, 0, len(trajs))
	for _, t := range batch {
		j, _ := slices.BinarySearchFunc(order, t, byKey)
		next, order = append(append(next, order[:j]...), t), order[j:]
	}
	next = append(next, order...)

	same := func(a, b int32) bool {
		if a < old && b < old {
			return rank[a] == rank[b]
		}
		return canonKeyOf(trajs[a]).compare(canonKeyOf(trajs[b])) == 0
	}
	nextRank, r := make([]int32, len(trajs)), int32(0)
	for k, t := range next {
		if k > 0 && !same(next[k-1], t) {
			r++
		}
		nextRank[t] = r
	}
	return next, nextRank
}
