package hist

import (
	"cmp"
	"strings"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// View is the read-only surface of one archive generation. Everything that
// consumes historical trajectories — the reference search, the SearchCache
// and core.Engine — works against this interface; *Snapshot implements it,
// and tests wrap it to count or perturb range walks. A View is immutable:
// all methods may be called concurrently and return identical answers for
// the lifetime of the value.
type View interface {
	// Graph returns the road network the archive is collected over.
	Graph() *roadnet.Graph
	// Epoch identifies this archive generation. A Store increments it on
	// every admitted batch; epoch-tagged caches (SearchCache, core.Gate's
	// flights) use it to recognize stale entries. Bulk-built snapshots are
	// epoch 0.
	Epoch() uint64
	// EpochFingerprint hashes the per-shard epoch vector of the generation.
	// Epoch-tagged caches key on it next to Epoch, so a memo recorded against
	// one shard-epoch vector can never satisfy a reader of another, even
	// under an equal scalar epoch.
	EpochFingerprint() uint64
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
	// Point resolves a PointRef.
	Point(r PointRef) traj.GPSPoint
	// VisitBox calls fn for every archive point whose location intersects
	// box, each exactly once, in arbitrary order; fn returning false stops it.
	// The one range primitive: a radius query adds its own distance test.
	VisitBox(box geo.BBox, fn func(PointRef) bool)
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
// trajectories.
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
