package hist

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/rtree"
	"repro/internal/traj"
)

// StoreConfig tunes a live Store.
type StoreConfig struct {
	// StayPoint / MinPoints / VMax parameterize the Preprocess pipeline run
	// by Ingest (§II-B.1). Zero values mean traj.DefaultStayPointParams, a
	// MinPoints of 2, and no outlier removal respectively.
	StayPoint traj.StayPointParams
	MinPoints int
	VMax      float64
	// CompactSegments triggers a background compaction once the snapshot
	// carries this many R-tree segments (base + memtables). NewStore
	// normalizes degenerate values: <= 0 uses DefaultCompactSegments, and 1
	// — which would compact on every ingest, since the base segment alone
	// already counts — is raised to 2. Set it very high to manage compaction
	// manually via Compact.
	CompactSegments int
	// CompactPoints triggers a background compaction once the un-compacted
	// memtable segments hold this many GPS points, regardless of how few
	// batches produced them — the backstop against a handful of huge batches
	// monopolizing memory as dynamic trees. <= 0 uses DefaultCompactPoints.
	CompactPoints int
	// WALSync selects the write-ahead-log sync policy of composites opened
	// with OpenShardedStore (the zero value is SyncAlways); the in-memory
	// constructors ignore it.
	WALSync SyncPolicy
	// WALSyncEvery is the background fsync period under SyncInterval
	// (<= 0 uses DefaultWALSyncInterval).
	WALSyncEvery time.Duration
	// Registry receives ingest/compaction histograms and counters (nil = no
	// instrumentation, zero clock reads).
	Registry *obs.Registry
}

// DefaultCompactSegments bounds how many memtable segments pile up before a
// background merge. Range queries fan out across all segments, so this caps
// the read amplification at base + 7 memtables.
const DefaultCompactSegments = 8

// DefaultCompactPoints bounds how many GPS points the memtable segments may
// hold before a merge, whatever the batch count.
const DefaultCompactPoints = 1 << 20

// IngestStats describes one admitted ingest batch.
type IngestStats struct {
	Trips  int    `json:"trips"`  // trips admitted (post preprocessing)
	Points int    `json:"points"` // GPS points admitted
	Epoch  uint64 `json:"epoch"`  // epoch of the snapshot the batch became visible in
	// Durability reports how far the batch had traveled when the call
	// returned: "synced", "logged", "memory" or "failed" (the Durability...
	// constants in persist.go).
	Durability string `json:"durability,omitempty"`
}

// StoreStats is a point-in-time summary of the store. A ShardedStore
// reports its composite totals in the top-level fields — the on-disk gauges
// exist only there, durability being a property of the composite — and each
// shard's own summary under Shards (empty for a plain Store).
type StoreStats struct {
	Epoch        uint64       `json:"epoch"`
	Trajs        int          `json:"trajs"`
	Points       int          `json:"points"`
	Segments     int          `json:"segments"`
	Compactions  uint64       `json:"compactions"`
	WALBytes     int64        `json:"wal_bytes,omitempty"`     // live write-ahead-log bytes (durable stores)
	SegmentBytes int64        `json:"segment_bytes,omitempty"` // newest segment file bytes (durable stores)
	Durability   string       `json:"durability,omitempty"`    // WAL sync policy ("" for in-memory stores)
	Shards       []StoreStats `json:"shards,omitempty"`
}

// Store is the live archive: an LSM-style stack of R-tree segments that
// admits new trips while queries run. Every mutation publishes a fresh
// immutable Snapshot through an atomic pointer, so readers are lock-free
// and wait-free — a reader calls Current once, then works against that
// generation for as long as it likes (core.Engine pins one snapshot per
// inference call). Writers are serialized by a mutex.
//
// Ingest appends trips into a small dynamic R-tree memtable (one segment
// per batch, built with the incremental Insert path); once CompactSegments
// segments accumulate, a background compaction bulk-loads one merged base
// tree and swaps it in. Compaction is physical reorganization only — the
// trajectory set is unchanged — so it publishes under the same epoch and
// epoch-tagged caches stay warm across it.
type Store struct {
	g   *roadnet.Graph
	cfg StoreConfig

	cur atomic.Pointer[Snapshot]

	mu sync.Mutex // serializes snapshot publication (writers only)

	compactMu   sync.Mutex  // serializes whole compactions (background and Compact)
	compacting  atomic.Bool // single-flight guard for background compaction
	wg          sync.WaitGroup
	compactions atomic.Uint64

	// compacted, when set, runs after every compaction that merged something
	// — the owning ShardedStore's cue to checkpoint. Set before the store is
	// shared, never changed afterwards.
	compacted func()
}

// NewStore opens a live archive over road network g, seeded with an already
// preprocessed trip set (may be nil). The seed becomes the epoch-0 base
// segment, exactly as NewArchive would build it.
func NewStore(g *roadnet.Graph, seed []*traj.Trajectory, cfg StoreConfig) *Store {
	if cfg.StayPoint == (traj.StayPointParams{}) {
		cfg.StayPoint = traj.DefaultStayPointParams()
	}
	if cfg.MinPoints <= 0 {
		cfg.MinPoints = 2
	}
	if cfg.CompactSegments <= 0 {
		cfg.CompactSegments = DefaultCompactSegments
	}
	if cfg.CompactSegments == 1 {
		// The base segment alone reaches a threshold of 1, so every ingest
		// would immediately compact — the smallest meaningful stack is 2.
		cfg.CompactSegments = 2
	}
	if cfg.CompactPoints <= 0 {
		cfg.CompactPoints = DefaultCompactPoints
	}
	s := &Store{g: g, cfg: cfg}
	s.cur.Store(NewArchive(g, seed))
	return s
}

// Current implements Source: the latest published snapshot.
func (s *Store) Current() View { return s.cur.Load() }

// Snapshot returns the latest published generation as its concrete type —
// the same value Current yields, for callers that need Snapshot-only
// surface (ShardedStore's pointer comparisons, tests pinning a generation).
func (s *Store) Snapshot() *Snapshot { return s.cur.Load() }

// Graph returns the road network the store is collected over.
func (s *Store) Graph() *roadnet.Graph { return s.g }

// Stats summarizes the current generation.
func (s *Store) Stats() StoreStats {
	snap := s.cur.Load()
	return StoreStats{
		Epoch:       snap.epoch,
		Trajs:       len(snap.Trajs),
		Points:      snap.points,
		Segments:    len(snap.segs),
		Compactions: s.compactions.Load(),
	}
}

// Ingest runs the Preprocess pipeline (outlier removal, stay-point trip
// partitioning, short-fragment dropping) on raw GPS logs and admits the
// resulting trips. It returns what was actually admitted — a log can yield
// several trips or none at all.
func (s *Store) Ingest(logs ...*traj.Trajectory) IngestStats {
	trips := Preprocess(logs, s.cfg.StayPoint, s.cfg.MinPoints, s.cfg.VMax)
	return s.IngestTrips(trips...)
}

// IngestTrips admits already-preprocessed trips as one batch: the batch is
// indexed into a fresh memtable segment and becomes visible atomically in a
// new epoch. Admitting the same trips as NewArchive — in any batch
// partitioning or order — yields a store whose inference answers are
// byte-identical to that bulk archive's.
func (s *Store) IngestTrips(trips ...*traj.Trajectory) IngestStats {
	var t0 time.Time
	if s.cfg.Registry != nil {
		t0 = time.Now()
	}
	kept := make([]*traj.Trajectory, 0, len(trips))
	for _, tr := range trips {
		if tr != nil && tr.Len() > 0 {
			kept = append(kept, tr)
		}
	}
	if len(kept) == 0 {
		return IngestStats{Epoch: s.cur.Load().epoch}
	}

	s.mu.Lock()
	old := s.cur.Load()
	// Full slice expressions pin capacity so append always copies: the
	// published snapshot's slices are never writable through the new one.
	trajs := append(old.Trajs[:len(old.Trajs):len(old.Trajs)], kept...)
	mem := rtree.New[PointRef]()
	points := 0
	for ti, tr := range kept {
		for pi, p := range tr.Points {
			mem.Insert(geo.BBox{Min: p.Pt, Max: p.Pt}, PointRef{Traj: len(old.Trajs) + ti, Idx: pi})
			points++
		}
	}
	next := &Snapshot{
		G:       s.g,
		Trajs:   trajs,
		segs:    append(old.segs[:len(old.segs):len(old.segs)], mem),
		points:  old.points + points,
		basePts: old.basePts,
		epoch:   old.epoch + 1,
	}
	s.cur.Store(next)
	s.mu.Unlock()

	if r := s.cfg.Registry; r != nil {
		r.Histogram(obs.StageIngest).ObserveSince(t0)
		r.Counter(obs.CounterIngestBatches).Inc()
		r.Counter(obs.CounterIngestTrips).Add(uint64(len(kept)))
		r.Counter(obs.CounterIngestPoints).Add(uint64(points))
	}
	if len(next.segs) >= s.cfg.CompactSegments || next.points-next.basePts >= s.cfg.CompactPoints {
		s.triggerCompact()
	}
	return IngestStats{Trips: len(kept), Points: points, Epoch: next.epoch, Durability: DurabilityMemory}
}

// triggerCompact starts a background compaction unless one is already
// running (single-flight: concurrent ingest bursts fold into one merge).
func (s *Store) triggerCompact() {
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.compacting.Store(false)
		s.compact()
	}()
}

// Compact synchronously merges all segments into one bulk-loaded base tree.
// It is a no-op when the snapshot is already fully compacted, and safe to
// call concurrently with ingest, readers, and other compactions (all merges
// are serialized on one mutex, so overlapping calls simply run in turn).
func (s *Store) Compact() {
	s.compact()
}

// Wait blocks until any in-flight background compaction finishes. Callers
// needing a deterministic segment layout (benchmarks, shutdown) call
// Compact then Wait.
func (s *Store) Wait() {
	s.wg.Wait()
}

// CompactBeforePublish, when set, runs after a compaction builds its merged
// base tree and before it publishes. Test-only seam, exported so the
// cross-package crash-recovery suites can inject failures mid-compaction:
// it holds a merge open so regression tests can deterministically schedule
// a second compaction against the same segment stack, or kill a durable
// composite between a batch's WAL append and the checkpoint that follows
// the merge.
var CompactBeforePublish func()

func (s *Store) compact() {
	// One merge in flight at a time: a synchronous Compact racing the
	// background compaction would otherwise load the same pre snapshot and
	// the loser would splice cur.segs against a base that already absorbed
	// them (negative capacity, or an index missing memtable segments).
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	pre := s.cur.Load()
	if len(pre.segs) <= 1 {
		return
	}
	var t0 time.Time
	if s.cfg.Registry != nil {
		t0 = time.Now()
	}
	// Bulk-load the merge outside the write lock: ingest keeps landing new
	// memtables meanwhile. Snapshots are append-only in both Trajs and segs,
	// so pre.segs is exactly the prefix of any later snapshot's segs and
	// indexes exactly the points of pre.Trajs.
	merged := rtree.Bulk(pointEntries(pre.Trajs, 0))
	if CompactBeforePublish != nil {
		CompactBeforePublish()
	}

	s.mu.Lock()
	cur := s.cur.Load()
	segs := make([]*rtree.Tree[PointRef], 0, 1+len(cur.segs)-len(pre.segs))
	segs = append(segs, merged)
	segs = append(segs, cur.segs[len(pre.segs):]...)
	// Same trajectory set ⇒ same content generation: keep the epoch, so
	// epoch-tagged caches survive physical reorganization.
	next := &Snapshot{
		G:       s.g,
		Trajs:   cur.Trajs,
		segs:    segs,
		points:  cur.points,
		basePts: pre.points,
		epoch:   cur.epoch,
	}
	s.cur.Store(next)
	s.mu.Unlock()

	s.compactions.Add(1)
	if r := s.cfg.Registry; r != nil {
		r.Histogram(obs.StageCompaction).ObserveSince(t0)
		r.Counter(obs.CounterCompactions).Inc()
	}
	if s.compacted != nil {
		s.compacted()
	}
}
