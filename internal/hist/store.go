package hist

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/roadnet"
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
	// CompactSegments triggers a background compaction once a shard carries
	// this many grid segments (base + one per batch). The constructors
	// normalize degenerate values: <= 0 uses DefaultCompactSegments, and 1
	// — which would compact on every ingest, since the base segment alone
	// already counts — is raised to 2. Set it very high to manage compaction
	// manually via Compact.
	CompactSegments int
	// WALSync selects the write-ahead-log sync policy of stores opened with
	// OpenShardedStore (the zero value is SyncAlways); the in-memory
	// constructors ignore it.
	WALSync SyncPolicy
	// Registry receives the ingest, compaction, scatter and durability
	// histograms and counters (nil = no instrumentation, zero clock reads).
	Registry *obs.Registry
}

// ShardedConfig tunes a Store's partition on top of its StoreConfig.
type ShardedConfig struct {
	StoreConfig
	// Shards is the number of spatial shards (< 1 means 1).
	Shards int
	// Halo is the partition's halo margin. Answers are exact for any value
	// (see Partition); sizing it at or above the reference-search radius φ
	// keeps boundary queries on the single-shard fast path.
	Halo float64
}

// DefaultCompactSegments bounds how many batch segments pile up in a shard
// before a background merge. Range queries fan out across all of a shard's
// segments, so this caps the read amplification at base + 7 batches.
const DefaultCompactSegments = 8

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

// StoreStats is a point-in-time summary of the store: totals in the
// top-level fields — the on-disk gauges exist only there, durability being
// a property of the whole store — and each shard's own summary under Shards.
type StoreStats struct {
	Epoch       uint64       `json:"epoch"`
	Trajs       int          `json:"trajs"`
	Points      int          `json:"points"`
	Segments    int          `json:"segments"`
	Compactions uint64       `json:"compactions"`
	WALBytes    int64        `json:"wal_bytes,omitempty"`  // write-ahead-log bytes (durable stores)
	Durability  string       `json:"durability,omitempty"` // WAL sync policy ("" for in-memory stores)
	Shards      []StoreStats `json:"shards,omitempty"`
}

// Store is the live archive. A Partition over the graph bbox routes each
// ingested trip to the shards whose halo cells its points touch, and every
// mutation publishes a fresh immutable Snapshot through an atomic pointer,
// so readers are lock-free and wait-free — a reader calls Current once,
// then works against that generation for as long as it likes (core.Engine
// pins one snapshot per inference call). Writers are serialized by one
// mutex.
//
// Ingest appends each batch to every shard it touches as one grid segment
// over that batch's trips — the batch is complete before it is published,
// so a segment is built once and never modified. Once a shard's stack
// reaches CompactSegments, a single-flight background pass builds one
// merged base grid for every shard over the threshold and swaps them in.
// Compaction is physical reorganization only — the trajectory set is
// unchanged — so it publishes under the same epoch and shard epochs, and
// epoch-tagged caches stay warm across it. Answers are byte-identical to
// NewArchive over the same trips, for any shard count, halo, ingest order
// and compaction timing.
type Store struct {
	cfg ShardedConfig

	mu  sync.Mutex // serializes ingest and snapshot publication
	cur atomic.Pointer[Snapshot]

	compactMu  sync.Mutex  // serializes whole compaction passes (background and Compact)
	compacting atomic.Bool // single-flight guard for the background pass
	wg         sync.WaitGroup

	// persist is the data-directory attachment — the WAL — set only by
	// OpenShardedStore, before the store is shared.
	persist *persist
}

// NewStore opens a one-shard live archive over road network g, seeded with
// an already preprocessed trip set (may be nil).
func NewStore(g *roadnet.Graph, seed []*traj.Trajectory, cfg StoreConfig) *Store {
	return NewShardedStore(g, seed, ShardedConfig{StoreConfig: cfg})
}

// NewShardedStore opens a live archive over road network g partitioned into
// cfg.Shards spatial shards, seeded with an already preprocessed trip set
// (may be nil). The seed becomes every shard's epoch-0 base segment.
func NewShardedStore(g *roadnet.Graph, seed []*traj.Trajectory, cfg ShardedConfig) *Store {
	if cfg.StayPoint == (traj.StayPointParams{}) {
		cfg.StayPoint = traj.DefaultStayPointParams()
	}
	if cfg.CompactSegments <= 0 {
		cfg.CompactSegments = DefaultCompactSegments
	}
	if cfg.CompactSegments == 1 {
		// The base segment alone reaches a threshold of 1, so every ingest
		// would immediately compact — the smallest meaningful stack is 2.
		cfg.CompactSegments = 2
	}
	s := &Store{cfg: cfg}
	s.cur.Store(newSnapshot(g, NewPartition(g.BBox(), cfg.Shards, cfg.Halo), cfg.Registry, seed))
	return s
}

// Current implements Source: the latest published snapshot.
func (s *Store) Current() View { return s.cur.Load() }

// Snapshot returns the latest published generation as its concrete type —
// the same value Current yields.
func (s *Store) Snapshot() *Snapshot { return s.cur.Load() }

// Stats summarizes the current generation, with each shard's own summary
// under Shards.
func (s *Store) Stats() StoreStats {
	snap := s.cur.Load()
	st := StoreStats{
		Epoch:  snap.epoch,
		Trajs:  len(snap.trajs),
		Points: snap.points,
		Shards: make([]StoreStats, len(snap.shards)),
	}
	for i, sh := range snap.shards {
		st.Shards[i] = StoreStats{
			Epoch:       sh.epoch,
			Trajs:       len(sh.trips),
			Points:      sh.points,
			Segments:    len(sh.segs),
			Compactions: sh.compactions,
		}
		st.Segments += len(sh.segs)
		st.Compactions += sh.compactions
	}
	s.persist.fold(&st)
	return st
}

// Ingest runs the Preprocess pipeline (outlier removal, stay-point trip
// partitioning, short-fragment dropping) on raw GPS logs and admits the
// resulting trips. It returns what was actually admitted — a log can yield
// several trips or none at all.
func (s *Store) Ingest(logs ...*traj.Trajectory) IngestStats {
	return s.IngestTrips(Preprocess(logs, s.cfg.StayPoint, s.cfg.MinPoints, s.cfg.VMax)...)
}

// IngestTrips admits already-preprocessed trips as one batch: each trip is
// routed to its assigned shards, and the whole batch becomes visible
// atomically in a new epoch. Trips and points report global counts — halo
// replication is visible only in the per-shard counters and Stats.
func (s *Store) IngestTrips(trips ...*traj.Trajectory) IngestStats {
	stats, next := s.ingest(trips)
	if next != nil && s.overThreshold(next) {
		s.triggerCompact()
	}
	return stats
}

// ingest admits one batch without cueing compaction — OpenShardedStore's
// replay calls it directly, so the replayed batch segments are merged once
// at the end rather than several times over — and returns the snapshot it
// published (nil when the batch admitted nothing).
func (s *Store) ingest(trips []*traj.Trajectory) (IngestStats, *Snapshot) {
	reg := s.cfg.Registry
	var t0 time.Time
	if reg != nil {
		t0 = time.Now()
	}
	kept := make([]*traj.Trajectory, 0, len(trips))
	for _, tr := range trips {
		if tr != nil && tr.Len() > 0 {
			kept = append(kept, tr)
		}
	}
	if len(kept) == 0 {
		return IngestStats{Epoch: s.cur.Load().epoch}, nil
	}

	s.mu.Lock()
	old := s.cur.Load()
	// One WAL record — and one fsync under SyncAlways — makes the whole
	// batch durable before it becomes visible in any shard.
	durability := s.persist.logBatch(old.epoch+1, kept)
	// Full slice expressions pin capacity so append always copies: a
	// published snapshot's slices are never writable through a newer one.
	next := *old
	next.epoch++
	next.trajs = append(old.trajs[:len(old.trajs):len(old.trajs)], kept...)
	next.shards = slices.Clone(old.shards)
	var ids []int
	for k, tr := range kept {
		gi := len(old.trajs) + k
		next.points += tr.Len()
		ids = next.part.assign(ids[:0], tr)
		for _, i := range ids {
			sh := &next.shards[i]
			if len(sh.trips) == len(old.shards[i].trips) {
				sh.trips = sh.trips[:len(sh.trips):len(sh.trips)]
			}
			sh.trips = append(sh.trips, gi)
			sh.points += tr.Len()
		}
	}
	for i := range next.shards {
		sh, was := &next.shards[i], &old.shards[i]
		if len(sh.trips) == len(was.trips) {
			continue
		}
		seg := newSegment(next.trajs, sh.trips[len(was.trips):], next.clip)
		sh.segs = append(sh.segs[:len(sh.segs):len(sh.segs)], seg)
		sh.epoch++
	}
	s.cur.Store(&next)
	s.mu.Unlock()

	points := next.points - old.points
	if reg != nil {
		reg.Histogram(obs.StageIngest).ObserveSince(t0)
		reg.Counter(obs.CounterIngestBatches).Inc()
		reg.Counter(obs.CounterIngestTrips).Add(uint64(len(kept)))
		reg.Counter(obs.CounterIngestPoints).Add(uint64(points))
		for i, sh := range next.shards {
			was := &old.shards[i]
			if sh.epoch == was.epoch {
				continue
			}
			prefix := obs.ShardPrefix + strconv.Itoa(i) + "."
			reg.Counter(prefix + obs.CounterIngestTrips).Add(uint64(len(sh.trips) - len(was.trips)))
			reg.Counter(prefix + obs.CounterIngestPoints).Add(uint64(sh.points - was.points))
			reg.Counter(prefix + obs.CounterIngestBatches).Inc()
		}
	}
	return IngestStats{Trips: len(kept), Points: points, Epoch: next.epoch, Durability: durability}, &next
}

// over reports whether shard sh has reached the compaction threshold.
func (s *Store) over(sh *shard) bool {
	return len(sh.segs) >= s.cfg.CompactSegments
}

// overThreshold reports whether any shard of snap has crossed one.
func (s *Store) overThreshold(snap *Snapshot) bool {
	for i := range snap.shards {
		if s.over(&snap.shards[i]) {
			return true
		}
	}
	return false
}

// triggerCompact starts the background compaction pass unless one is
// already running (single-flight: concurrent ingest bursts fold into one).
// The pass repeats while some shard is over its threshold, and looks once
// more after lowering the flag: an ingest that crossed a threshold while
// the flag was still up left its merge to this pass.
func (s *Store) triggerCompact() {
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			for s.compact(false) {
			}
			s.compacting.Store(false)
			if !s.overThreshold(s.cur.Load()) || !s.compacting.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}

// Compact synchronously merges every shard into one base grid.
// It is a no-op when the snapshot is already fully compacted, and safe to
// call concurrently with ingest, readers, and other compactions (passes are
// serialized on one mutex, so overlapping calls simply run in turn).
func (s *Store) Compact() {
	s.compact(true)
}

// Wait blocks until any in-flight background compaction finishes. Callers
// needing a deterministic segment layout (benchmarks, shutdown) call
// Compact then Wait.
func (s *Store) Wait() {
	s.wg.Wait()
}

// CompactBeforePublish, when set, runs after a compaction pass builds its
// merged base grids and before it publishes. Test-only seam, exported so the
// cross-package crash-recovery suites can inject failures mid-compaction:
// it holds a pass open so regression tests can deterministically schedule a
// second compaction against the same segment stacks, or kill a durable store
// between a batch's WAL append and the log sync that ends the pass.
var CompactBeforePublish func()

// compact runs one compaction pass over every shard with batch segments —
// all of them, or only those over a threshold — and reports whether it
// merged anything. The merges publish once, keeping every epoch,
// and a durable store then fsyncs its log, so under every sync policy a
// compaction makes each batch logged before it durable.
func (s *Store) compact(all bool) bool {
	// One pass at a time: a synchronous Compact racing the background pass
	// would otherwise load the same pre snapshot, and the loser would splice
	// a shard's segments against a base that already absorbed them
	// (negative capacity, or an index missing batch segments).
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	pre := s.cur.Load()
	var t0 time.Time
	if s.cfg.Registry != nil {
		t0 = time.Now()
	}
	// Build the merges outside the write lock: ingest keeps landing new
	// segments meanwhile. Shard stacks and trip lists are append-only, so
	// pre's are exactly the prefix of any later snapshot's.
	merged := make([]*grid.Grid[PointRef], len(pre.shards))
	n := 0
	for i := range pre.shards {
		if sh := &pre.shards[i]; len(sh.segs) > 1 && (all || s.over(sh)) {
			merged[i] = newSegment(pre.trajs, sh.trips, pre.clip)
			n++
		}
	}
	if n == 0 {
		return false
	}
	if CompactBeforePublish != nil {
		CompactBeforePublish()
	}

	s.mu.Lock()
	cur := s.cur.Load()
	next := *cur
	next.shards = slices.Clone(cur.shards)
	for i, base := range merged {
		if base == nil {
			continue
		}
		sh, was := &next.shards[i], &pre.shards[i]
		sh.segs = append([]*grid.Grid[PointRef]{base}, sh.segs[len(was.segs):]...)
		sh.compactions++
	}
	s.cur.Store(&next)
	s.mu.Unlock()

	if r := s.cfg.Registry; r != nil {
		r.Histogram(obs.StageCompaction).ObserveSince(t0)
		r.Counter(obs.CounterCompactions).Inc()
	}
	s.persist.syncNow()
	return true
}
