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
	// (see partition); sizing it at or above the reference-search radius φ
	// keeps boundary queries on the single-shard fast path.
	Halo float64
}

// compactSegments bounds a shard's segment stack: the batch that would
// bring it to this many grids is merged with the rest into one base grid
// instead. Range queries fan out across all of a shard's segments, so this
// caps the read amplification at base + 6 batches.
const compactSegments = 8

// IngestStats describes one admitted ingest batch.
type IngestStats struct {
	Trips  int    `json:"trips"`  // trips admitted (post preprocessing)
	Points int    `json:"points"` // GPS points admitted
	Epoch  uint64 `json:"epoch"`  // epoch of the snapshot the batch became visible in
	// Durability reports how far the batch had traveled when the call
	// returned: "synced", "logged", "memory" or "failed" (the Durability...
	// constants in persist.go); for a batch preprocessing emptied, the label
	// one admitted at that moment would have got.
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

// Store is the live archive. A partition over the graph bbox routes each
// ingested trip to the shards whose halo cells its points touch, and every
// mutation publishes a fresh immutable Snapshot through an atomic pointer,
// so readers are lock-free and wait-free — a reader calls Current once,
// then works against that generation for as long as it likes (core.Engine
// pins one snapshot per inference call). Writers are serialized by one
// mutex.
//
// Ingest appends each batch to every shard it touches as one grid segment
// over that batch's trips — the batch is complete before it is published,
// so a segment is built once and never modified. A shard whose stack the
// batch would fill gets one merged base grid over all of its trips instead,
// inside the same write and under the batch's epoch; Compact merges every
// stack the same way. A merge is physical reorganization only — the
// trajectory set is unchanged — so a Compact publishes under the same epoch
// and shard epochs, and epoch-tagged caches stay warm across it. Answers
// are byte-identical to NewArchive over the same trips, for any shard
// count, halo, ingest order and batch split.
type Store struct {
	cfg ShardedConfig

	mu  sync.Mutex // serializes ingest, merges and snapshot publication
	cur atomic.Pointer[Snapshot]

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
	s := &Store{cfg: cfg}
	s.cur.Store(newSnapshot(g, newPartition(g.BBox(), cfg.Shards, cfg.Halo), cfg.Registry, seed))
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

// Ingest runs the Preprocess pipeline on raw GPS logs — stay-point trip
// partitioning with traj.DefaultStayPointParams, dropping fragments of
// fewer than 2 points, no outlier removal — and admits the resulting trips.
// It returns what was actually admitted — a log can yield several trips or
// none at all.
func (s *Store) Ingest(logs ...*traj.Trajectory) IngestStats {
	return s.IngestTrips(Preprocess(logs, traj.DefaultStayPointParams(), 2, 0)...)
}

// IngestTrips admits already-preprocessed trips as one batch: each trip is
// routed to its assigned shards, and the whole batch becomes visible
// atomically in a new epoch. Trips and points report global counts — halo
// replication is visible only in the per-shard counters and Stats.
func (s *Store) IngestTrips(trips ...*traj.Trajectory) IngestStats {
	return s.ingest(trips, compactSegments)
}

// ingest admits one batch; a touched shard whose stack the batch would bring
// to limit grids is merged, batch included. OpenShardedStore's replay passes
// no reachable limit, so the replayed batch segments are merged once at the
// end rather than several times over.
func (s *Store) ingest(trips []*traj.Trajectory, limit int) IngestStats {
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
		return IngestStats{Epoch: s.cur.Load().epoch, Durability: s.persist.durability()}
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
	next.order, next.rank = canonRanks(next.trajs, old.order, old.rank)
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
		sh.epoch++
		if len(sh.segs)+1 >= limit {
			sh.segs = nil // full: merged below, this batch included
			continue
		}
		seg := newSegment(next.trajs, sh.trips[len(was.trips):], next.clip)
		sh.segs = append(sh.segs[:len(sh.segs):len(sh.segs)], seg)
	}
	s.merge(&next)
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
	return IngestStats{Trips: len(kept), Points: points, Epoch: next.epoch, Durability: durability}
}

// Compact merges every shard's segment stack into one base grid and
// publishes the result under the same epoch. It is a no-op when every
// shard already holds one grid.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	next := *cur
	next.shards = slices.Clone(cur.shards)
	for i := range next.shards {
		if sh := &next.shards[i]; len(sh.segs) > 1 {
			sh.segs = nil
		}
	}
	if s.merge(&next) {
		s.cur.Store(&next)
	}
}

// Wait returns at once: every merge finishes inside the ingest or Compact
// call that causes it, so there is nothing left to wait for.
func (s *Store) Wait() {}

// merge gives every shard of next whose stack was cleared for merging one
// base grid over all of its trips, with s.mu held, and reports whether there
// was one. A pass that merged anything is counted and ends with a log sync,
// so under every sync policy a merge makes each batch logged before it
// durable.
func (s *Store) merge(next *Snapshot) bool {
	reg := s.cfg.Registry
	var t0 time.Time
	if reg != nil {
		t0 = time.Now()
	}
	n := 0
	for i := range next.shards {
		if sh := &next.shards[i]; sh.segs == nil {
			sh.segs = []*grid.Grid[PointRef]{newSegment(next.trajs, sh.trips, next.clip)}
			sh.compactions++
			n++
		}
	}
	if n == 0 {
		return false
	}
	if reg != nil {
		reg.Histogram(obs.StageCompaction).ObserveSince(t0)
		reg.Counter(obs.CounterCompactions).Inc()
	}
	s.persist.syncNow()
	return true
}
