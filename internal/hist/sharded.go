package hist

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// ShardedConfig tunes a ShardedStore.
type ShardedConfig struct {
	// StoreConfig parameterizes every shard's Store (preprocessing,
	// compaction threshold). The Registry and the WAL policy are kept by the
	// composite — shards run uninstrumented and in memory, and the
	// ShardedStore records composite ingest latency, per-shard replica
	// counters and scatter/fan-out metrics.
	StoreConfig
	// Shards is the number of spatial shards (< 1 means 1).
	Shards int
	// Halo is the partition's halo margin. Sharded answers are exact for
	// any value (see Partition); sizing it at or above the reference-search
	// radius φ keeps boundary queries on the single-shard fast path.
	Halo float64
}

// ShardedStore is the spatially sharded live archive: a Partition over the
// graph bbox routes each ingested trip to the shards whose halo cells its
// points touch, and N independent Stores — each with its own memtable stack,
// compaction loop and epoch — index their assigned trips. Readers see one
// composite ShardedSnapshot implementing View; its range queries scatter to
// the shards overlapping the search box and gather with home-ownership
// dedup, so inference answers are byte-identical to a single Store holding
// the same trips, for any shard count, halo and ingest order.
//
// Only the composite ingests into the shards (they are not exported), which
// is what makes the composite epoch sound: every content change flows
// through IngestTrips under one mutex, and background shard compactions —
// the one shard-local mutation — are physical reorganizations that preserve
// shard epochs and are re-pinned by Current without a content epoch bump.
type ShardedStore struct {
	g      *roadnet.Graph
	cfg    ShardedConfig
	part   *Partition
	shards []*Store
	reg    *obs.Registry

	mu  sync.Mutex // serializes ingest bookkeeping and snapshot publication
	cur atomic.Pointer[ShardedSnapshot]

	// persist is the data-directory attachment — the WAL and the segment
	// series — set only by OpenShardedStore. Durability is the composite's
	// alone: the shards below never touch disk.
	persist *persist
}

// NewShardedStore opens a sharded live archive over road network g, seeded
// with an already preprocessed trip set (may be nil). Seed trips become each
// shard's epoch-0 bulk base segment, exactly as NewStore would build from
// the per-shard assignment.
func NewShardedStore(g *roadnet.Graph, seed []*traj.Trajectory, cfg ShardedConfig) *ShardedStore {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Halo < 0 || math.IsNaN(cfg.Halo) {
		cfg.Halo = 0
	}
	part := NewPartition(g.BBox(), cfg.Shards, cfg.Halo)
	n := part.N()
	s := &ShardedStore{g: g, cfg: cfg, part: part, reg: cfg.Registry}

	batches := make([][]*traj.Trajectory, n)
	maps := make([][]int, n)
	points := 0
	for gi, tr := range seed {
		points += tr.Len()
		for _, i := range s.assign(tr) {
			batches[i] = append(batches[i], tr)
			maps[i] = append(maps[i], gi)
		}
	}
	shardCfg := cfg.StoreConfig
	shardCfg.Registry = nil
	s.shards = make([]*Store, n)
	snaps := make([]*Snapshot, n)
	for i := range s.shards {
		s.shards[i] = NewStore(g, batches[i], shardCfg)
		snaps[i] = s.shards[i].Snapshot()
	}
	epochs := make([]uint64, n)
	s.cur.Store(&ShardedSnapshot{
		g:      g,
		part:   part,
		reg:    cfg.Registry,
		shards: snaps,
		maps:   maps,
		trajs:  seed,
		points: points,
		epochs: epochs,
		fp:     epochFingerprint(epochs),
	})
	return s
}

// assign returns the shards that must index trip tr: every shard whose halo
// cell contains at least one of tr's points. The trip's home shards (of each
// point) are always included, because a point's own cell is inside its halo
// cell — that containment is the scatter path's completeness invariant.
func (s *ShardedStore) assign(tr *traj.Trajectory) []int {
	var out []int
	if tr == nil {
		return out
	}
	for i := 0; i < s.part.N(); i++ {
		hc := s.part.HaloCell(i)
		for _, p := range tr.Points {
			if hc.Min.X <= p.Pt.X && p.Pt.X <= hc.Max.X &&
				hc.Min.Y <= p.Pt.Y && p.Pt.Y <= hc.Max.Y {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Graph returns the road network the store is collected over.
func (s *ShardedStore) Graph() *roadnet.Graph { return s.g }

// Current implements Source: the latest published composite generation,
// re-pinned against any shard snapshots that background compactions have
// replaced since publication (compaction preserves content and epoch, so the
// refreshed composite keeps its epoch and fingerprint).
func (s *ShardedStore) Current() View { return s.CurrentSharded() }

// CurrentSharded is Current as its concrete type.
func (s *ShardedStore) CurrentSharded() *ShardedSnapshot {
	snap := s.cur.Load()
	for i, sh := range s.shards {
		if sh.Snapshot() != snap.shards[i] {
			return s.refresh()
		}
	}
	return snap
}

// refresh republishes the current composite over the shards' latest physical
// snapshots. Under mu no ingest can run, so the shard epochs — and therefore
// the composite epoch, fingerprint and trajectory set — are unchanged; only
// the segment stacks differ.
func (s *ShardedStore) refresh() *ShardedSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	stale := false
	snaps := make([]*Snapshot, len(s.shards))
	for i, sh := range s.shards {
		snaps[i] = sh.Snapshot()
		if snaps[i] != cur.shards[i] {
			stale = true
		}
	}
	if !stale {
		return cur
	}
	next := *cur
	next.shards = snaps
	s.cur.Store(&next)
	return &next
}

// Stats summarizes the current composite generation, with each shard's own
// summary under Shards.
func (s *ShardedStore) Stats() StoreStats {
	snap := s.CurrentSharded()
	st := StoreStats{
		Epoch:  snap.epoch,
		Trajs:  len(snap.trajs),
		Points: snap.points,
		Shards: make([]StoreStats, len(s.shards)),
	}
	for i, sh := range s.shards {
		ss := sh.Stats()
		st.Segments += ss.Segments
		st.Compactions += ss.Compactions
		st.Shards[i] = ss
	}
	s.persist.fold(&st)
	return st
}

// Ingest runs the Preprocess pipeline on raw GPS logs and admits the
// resulting trips, exactly as Store.Ingest.
func (s *ShardedStore) Ingest(logs ...*traj.Trajectory) IngestStats {
	trips := Preprocess(logs, s.cfg.StayPoint, s.cfg.MinPoints, s.cfg.VMax)
	return s.IngestTrips(trips...)
}

// IngestTrips admits already-preprocessed trips as one batch: each trip is
// routed to its assigned shards (ingested there as one shard-local batch)
// and the whole batch becomes visible atomically in a new composite epoch.
// Trips and points report global counts — halo replication is visible only
// in the per-shard counters and Stats.
func (s *ShardedStore) IngestTrips(trips ...*traj.Trajectory) IngestStats {
	var t0 time.Time
	if s.reg != nil {
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

	n := s.part.N()
	batches := make([][]*traj.Trajectory, n)
	shardPoints := make([]int, n)

	s.mu.Lock()
	old := s.cur.Load()
	// Full slice expressions pin capacity so append always copies: the
	// published composite's slices are never writable through the new one.
	trajs := append(old.trajs[:len(old.trajs):len(old.trajs)], kept...)
	maps := make([][]int, n)
	for i, m := range old.maps {
		maps[i] = m[:len(m):len(m)]
	}
	points := 0
	for k, tr := range kept {
		gi := len(old.trajs) + k
		points += tr.Len()
		for _, i := range s.assign(tr) {
			batches[i] = append(batches[i], tr)
			maps[i] = append(maps[i], gi)
			shardPoints[i] += tr.Len()
		}
	}
	// One WAL record — and one fsync under SyncAlways — makes the whole
	// composite batch durable before it becomes visible anywhere.
	durability := s.persist.logBatch(old.epoch+1, kept)
	snaps := make([]*Snapshot, n)
	epochs := make([]uint64, n)
	for i, sh := range s.shards {
		if len(batches[i]) > 0 {
			sh.IngestTrips(batches[i]...)
		}
		snaps[i] = sh.Snapshot()
		epochs[i] = snaps[i].epoch
	}
	next := &ShardedSnapshot{
		g:      s.g,
		part:   s.part,
		reg:    s.reg,
		shards: snaps,
		maps:   maps,
		trajs:  trajs,
		points: old.points + points,
		epoch:  old.epoch + 1,
		epochs: epochs,
		fp:     epochFingerprint(epochs),
	}
	s.cur.Store(next)
	s.mu.Unlock()

	if r := s.reg; r != nil {
		r.Histogram(obs.StageIngest).ObserveSince(t0)
		r.Counter(obs.CounterIngestBatches).Inc()
		r.Counter(obs.CounterIngestTrips).Add(uint64(len(kept)))
		r.Counter(obs.CounterIngestPoints).Add(uint64(points))
		for i := range s.shards {
			if len(batches[i]) == 0 {
				continue
			}
			prefix := obs.ShardPrefix + strconv.Itoa(i) + "."
			r.Counter(prefix + obs.CounterIngestTrips).Add(uint64(len(batches[i])))
			r.Counter(prefix + obs.CounterIngestPoints).Add(uint64(shardPoints[i]))
			r.Counter(prefix + obs.CounterIngestBatches).Inc()
		}
	}
	return IngestStats{Trips: len(kept), Points: points, Epoch: next.epoch, Durability: durability}
}

// Compact synchronously compacts every shard to a single base segment. In a
// durable composite each merge cues a checkpoint, and only the first finds
// the epoch advanced.
func (s *ShardedStore) Compact() {
	for _, sh := range s.shards {
		sh.Compact()
	}
}

// Wait blocks until all in-flight background shard compactions finish.
func (s *ShardedStore) Wait() {
	for _, sh := range s.shards {
		sh.Wait()
	}
}

// epochFingerprint folds a per-shard epoch vector into one comparable hash
// (FNV-1a over the little-endian bytes). Scalar sums would alias distinct
// vectors — (2,0) and (1,1) describe different content — which is exactly
// the confusion epoch-tagged caches must not suffer.
func epochFingerprint(epochs []uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, e := range epochs {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (e >> shift) & 0xff
			h *= prime
		}
	}
	return h
}

// ShardedSnapshot is one immutable composite generation of a ShardedStore:
// pinned per-shard snapshots plus the global trajectory list and the
// shard-local→global index maps that translate gathered PointRefs. It
// implements View — and, like Snapshot, is its own constant Source — so the
// whole inference pipeline runs unchanged over a sharded archive.
type ShardedSnapshot struct {
	g      *roadnet.Graph
	part   *Partition
	reg    *obs.Registry
	shards []*Snapshot
	maps   [][]int // per shard: local trajectory index → global index
	trajs  []*traj.Trajectory
	points int
	epoch  uint64   // composite publication counter
	epochs []uint64 // per-shard epochs at publication
	fp     uint64
}

// Current implements Source: a composite snapshot is its own generation.
func (v *ShardedSnapshot) Current() View { return v }

// Graph returns the road network the archive is collected over.
func (v *ShardedSnapshot) Graph() *roadnet.Graph { return v.g }

// Epoch identifies this composite generation: the number of admitted ingest
// batches, bumped once per IngestTrips regardless of how many shards the
// batch touched.
func (v *ShardedSnapshot) Epoch() uint64 { return v.epoch }

// EpochFingerprint implements Fingerprinted over the per-shard epoch vector.
func (v *ShardedSnapshot) EpochFingerprint() uint64 { return v.fp }

// NumPoints returns the number of distinct indexed GPS points (halo
// replicas are not double counted).
func (v *ShardedSnapshot) NumPoints() int { return v.points }

// NumTrajs returns the number of archived trajectories.
func (v *ShardedSnapshot) NumTrajs() int { return len(v.trajs) }

// Segments returns the total R-tree segment count across shards.
func (v *ShardedSnapshot) Segments() int {
	n := 0
	for _, sh := range v.shards {
		n += sh.Segments()
	}
	return n
}

// Traj returns archived trajectory i (global index).
func (v *ShardedSnapshot) Traj(i int) *traj.Trajectory { return v.trajs[i] }

// Point resolves a global PointRef.
func (v *ShardedSnapshot) Point(r PointRef) traj.GPSPoint {
	return v.trajs[r.Traj].Points[r.Idx]
}

// VisitBox calls fn for every archive point intersecting box, each exactly
// once, with global PointRefs; fn returning false stops the traversal. A box
// strictly inside one halo cell is answered from that single shard (every
// point there is indexed locally, each at most once); otherwise the query
// scatters over the shards whose own cell overlaps the box, in ascending
// order and sequentially (a range walk takes tens of microseconds), and
// delivers only hits owned by the queried shard: halo replicas dedup exactly.
func (v *ShardedSnapshot) VisitBox(box geo.BBox, fn func(PointRef) bool) {
	if home, ok := v.part.Covering(box); ok {
		v.observeFanout(1, true)
		m := v.maps[home]
		v.shards[home].VisitBox(box, func(r PointRef) bool {
			return fn(PointRef{Traj: m[r.Traj], Idx: r.Idx})
		})
		return
	}
	ids := v.part.Overlapping(nil, box)
	v.observeFanout(len(ids), false)
	stopped := false
	for _, id := range ids {
		m := v.maps[id]
		sh := v.shards[id]
		sh.VisitBox(box, func(r PointRef) bool {
			if v.part.Home(sh.Point(r).Pt) != id {
				return true
			}
			if !fn(PointRef{Traj: m[r.Traj], Idx: r.Idx}) {
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

// observeFanout records one range query's shard fan-out (1µs per shard in
// the log-bucketed histogram) and which routing path served it.
func (v *ShardedSnapshot) observeFanout(n int, fast bool) {
	if v.reg == nil {
		return
	}
	if fast {
		v.reg.Counter(obs.CounterQueryFastPath).Inc()
	} else {
		v.reg.Counter(obs.CounterQueryScatter).Inc()
	}
	v.reg.Histogram(obs.HistScatterFanout).Observe(time.Duration(n) * time.Microsecond)
}
