package hist

import (
	"context"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/traj"
)

// searchKey identifies one References call: the epoch of the archive
// generation answered against and the fingerprint of its shard epoch vector
// (see View.EpochFingerprint), the query pair and the complete search
// parameter set. All comparable.
type searchKey struct {
	epoch  uint64
	fp     uint64
	qi, qj traj.GPSPoint
	p      SearchParams
}

// SearchCache is a concurrency-safe read-through memo over the reference
// search, keyed by (epoch, q_i, q_{i+1}, params). It pays where query pairs
// repeat exactly (hit ratio 0.996 on the benchmark's infer-replay, a warm pair
// costing about half a cold one) and never hits on fresh traffic (0.000 on the
// other three workloads), so it is bounded by the bytes it retains: a server
// answering never-repeated queries must not grow with every query served.
//
// Entries are epoch-tagged: a query answered against epoch e can only hit
// a memo recorded at epoch e, so a Store publishing a new snapshot
// implicitly invalidates every older memo. The first key from a newer epoch
// drops the stale generation wholesale (counted by Invalidations), and
// readers still pinned to an older snapshot recompute on miss without
// repopulating the map.
//
// An entry is an exact-size run list, shared between callers, who MUST treat
// it as read-only. Snapshots are immutable: it never goes stale in its epoch.
type SearchCache struct {
	max int // bound on bytes, see entryBytes

	hits, misses, resets, invalidations atomic.Uint64

	mu    sync.RWMutex
	m     map[searchKey][]Reference
	bytes int    // retained by m, see entryBytes
	epoch uint64 // newest epoch seen; results for older epochs are not memoized
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

// ReferencesOn returns References(v, qi, qj, p), memoized under v's epoch.
// The caller pins v, so that one inference call sees a single archive
// generation even while the underlying Store keeps publishing new ones. Safe
// for concurrent use; the result must not be modified. A miss runs on the
// caller's scratch s and near sets near (nil: s's own) with ctx's cancellation
// checkpoints; a hit touches neither. A search cut short by cancellation
// returns its partial result but is never memoized — the cache only serves
// complete answers — and a pair that cannot have references (see searchable)
// never reaches the map.
func (c *SearchCache) ReferencesOn(ctx context.Context, v View, qi, qj traj.GPSPoint, p SearchParams, s *Searcher, near *NearSet) []Reference {
	if !searchable(qi, qj, p) {
		return nil
	}
	k := searchKey{epoch: v.Epoch(), fp: v.EpochFingerprint(), qi: qi, qj: qj, p: p}
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[k]; dup || k.epoch < c.epoch {
		// Either a concurrent miss on the same key got here first (identical
		// answer, bytes already counted), or the reader is still pinned to an
		// old snapshot: no current reader can hit its key, so inserting it
		// would only squat in the bound. Serve it unmemoized.
		return val
	}
	n := entryBytes(val)
	switch {
	case k.epoch > c.epoch:
		// A newer generation: memos of older epochs can never be hit again by
		// current readers. Drop them in one sweep rather than evicting lazily.
		if len(c.m) > 0 {
			c.m, c.bytes = make(map[searchKey][]Reference), 0
			c.invalidations.Add(1)
		}
		c.epoch = k.epoch
	case c.bytes+n > c.max && len(c.m) > 0:
		// Wholesale reset: cheap, but a working set beyond max thrashes — the
		// resets counter (surfaced through core.Engine.Metrics) shows it.
		c.m, c.bytes = make(map[searchKey][]Reference), 0
		c.resets.Add(1)
	}
	c.m[k] = val
	c.bytes += n
	return val
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

// Resets returns how many times the memo reset wholesale on overflow; a
// steadily climbing value means the working set exceeds the bound.
func (c *SearchCache) Resets() uint64 { return c.resets.Load() }

// Invalidations returns how many times a newly observed epoch purged the
// previous generation's memos.
func (c *SearchCache) Invalidations() uint64 { return c.invalidations.Load() }
