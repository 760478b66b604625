package hist

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/traj"
)

// searchKey identifies one References call: the epoch of the archive
// generation answered against (see View.Epoch), the query pair and the
// complete search parameter set. All comparable.
type searchKey struct {
	epoch  uint64
	qi, qj traj.GPSPoint
	p      SearchParams
}

// SearchCache is a concurrency-safe read-through memo over the reference
// search, keyed by (epoch, q_i, q_{i+1}, params). It pays where query pairs
// repeat exactly (hit ratio 0.994 on the benchmark's infer-replay, a warm pair
// costing about half a cold one) and never hits on fresh traffic (0.000 on the
// other three workloads), so it retains only what may be asked again:
//
//   - Admission: a key is memoized on its second miss, never its first.
//     A direct-mapped doorkeeper of key hashes (TinyLFU's, Einziger et al.)
//     remembers first sightings; a first sighting returns its result
//     unretained, without the write lock, and is counted by Declined. A
//     server answering never-repeated queries retains nothing.
//   - A byte bound (see entryBytes) on what was admitted, reset wholesale on
//     overflow (counted by Resets).
//
// Entries are epoch-tagged: a query answered against epoch e can only hit
// a memo recorded at epoch e, so a Store publishing a new snapshot
// implicitly invalidates every older memo. The first key from a newer epoch,
// admitted or not, drops the stale generation wholesale (counted by
// Invalidations), and readers still pinned to an older snapshot recompute on
// miss without repopulating the map.
//
// An entry is an exact-size run list, shared between callers, who MUST treat
// it as read-only. Snapshots are immutable: it never goes stale in its epoch.
type SearchCache struct {
	max int // bound on bytes, see entryBytes

	hits, misses, declined, resets, invalidations atomic.Uint64

	// door is the doorkeeper: slot hash>>doorShift holds the hash of the last
	// key that missed there, 0 for none. Two keys sharing a slot evict each
	// other's sighting, which can only delay an admission.
	door [1 << doorBits]atomic.Uint64
	// epoch is the newest epoch seen; results for older epochs are not
	// memoized. Written under mu, read by first sightings without it.
	epoch atomic.Uint64

	mu    sync.RWMutex
	m     map[searchKey][]Reference
	bytes int // retained by m, see entryBytes
}

// The doorkeeper has 1<<doorBits slots (64 KiB), indexed by a key hash's top
// bits.
const (
	doorBits  = 13
	doorShift = 64 - doorBits
)

// hash is FNV-1a over k's fields, with the low bit forced so that no key
// hashes to an empty doorkeeper slot's 0.
func (k *searchKey) hash() uint64 {
	h := uint64(fnvOffset)
	for _, v := range [...]uint64{
		k.epoch,
		math.Float64bits(k.qi.Pt.X), math.Float64bits(k.qi.Pt.Y), math.Float64bits(k.qi.T),
		math.Float64bits(k.qj.Pt.X), math.Float64bits(k.qj.Pt.Y), math.Float64bits(k.qj.T),
		math.Float64bits(k.p.Phi), math.Float64bits(k.p.SpliceEps), uint64(int64(k.p.SpliceMinSimple)),
		math.Float64bits(k.p.VMax),
	} {
		h = fnvMix(h, v)
	}
	return h | 1
}

// entryBytes is what memoizing refs retains: key, slice header and run list
// (map bucket overhead is not counted).
func entryBytes(refs []Reference) int {
	return int(unsafe.Sizeof(searchKey{})+unsafe.Sizeof(refs)) + len(refs)*int(unsafe.Sizeof(Reference{}))
}

// NewSearchCache builds a memo retaining at most maxBytes bytes (<= 0 uses
// 8 MiB). On overflow it resets wholesale: a working set that fits is never
// evicted, one that does not thrashes (see Resets).
func NewSearchCache(maxBytes int) *SearchCache {
	if maxBytes <= 0 {
		maxBytes = 8 << 20 // ~3,000 pairs at the ~80 references of φ = 500 m
	}
	return &SearchCache{max: maxBytes, m: make(map[searchKey][]Reference)}
}

// ReferencesOn returns References(v, qi, qj, p), memoized under v's epoch
// from the key's second miss on. The caller pins v, so that one inference
// call sees a single archive generation even while the underlying Store keeps
// publishing new ones. Safe for concurrent use; the result must not be
// modified. A miss runs on the caller's scratch s and near sets near (nil:
// s's own) with ctx's cancellation checkpoints; a hit touches neither. A
// search cut short by cancellation returns its partial result but is never
// memoized, nor counted as a sighting — the cache only serves complete
// answers — and a pair that cannot have references (see searchable) never
// reaches the map.
func (c *SearchCache) ReferencesOn(ctx context.Context, v View, qi, qj traj.GPSPoint, p SearchParams, s *Searcher, near *NearSet) []Reference {
	if !searchable(qi, qj, p) {
		return nil
	}
	k := searchKey{epoch: v.Epoch(), qi: qi, qj: qj, p: p}
	c.mu.RLock()
	val, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return val
	}
	c.misses.Add(1)
	val = s.references(v, qi, qj, p, near, ctx.Done())
	if ctx.Err() != nil {
		return val // possibly truncated by cancellation: do not memoize
	}
	if h := k.hash(); c.door[h>>doorShift].Swap(h) != h {
		// First sighting: remember it, retain nothing. A newer generation
		// still retires the old one, exactly as an admission would.
		c.declined.Add(1)
		if k.epoch > c.epoch.Load() {
			c.mu.Lock()
			c.advance(k.epoch)
			c.mu.Unlock()
		}
		return val
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[k]; dup || k.epoch < c.epoch.Load() {
		// Either a concurrent miss on the same key got here first (identical
		// answer, bytes already counted), or the reader is still pinned to an
		// old snapshot: no current reader can hit its key, so inserting it
		// would only squat in the bound. Serve it unmemoized.
		return val
	}
	c.advance(k.epoch)
	n := entryBytes(val)
	if c.bytes+n > c.max && len(c.m) > 0 {
		// Wholesale reset: cheap, but a working set beyond max thrashes — the
		// resets counter (surfaced through core.Engine.Metrics) shows it.
		c.m, c.bytes = make(map[searchKey][]Reference), 0
		c.resets.Add(1)
	}
	c.m[k] = val
	c.bytes += n
	return val
}

// advance moves the memo to epoch when it is newer than any seen: memos of
// older epochs can never be hit again by current readers, so they are dropped
// in one sweep rather than evicted lazily. The caller holds mu.
func (c *SearchCache) advance(epoch uint64) {
	if epoch <= c.epoch.Load() {
		return
	}
	if len(c.m) > 0 {
		c.m, c.bytes = make(map[searchKey][]Reference), 0
		c.invalidations.Add(1)
	}
	c.epoch.Store(epoch)
}

// Len returns the number of memoized entries.
func (c *SearchCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Bytes returns the bytes the memoized entries retain (see entryBytes).
func (c *SearchCache) Bytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// Stats returns the hit and miss counts since construction.
func (c *SearchCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Declined returns how many complete misses were first sightings, answered
// without being memoized.
func (c *SearchCache) Declined() uint64 { return c.declined.Load() }

// Resets returns how many times the memo reset wholesale on overflow; a
// steadily climbing value means the working set exceeds the bound.
func (c *SearchCache) Resets() uint64 { return c.resets.Load() }

// Invalidations returns how many times a newly observed epoch purged the
// previous generation's memos.
func (c *SearchCache) Invalidations() uint64 { return c.invalidations.Load() }
