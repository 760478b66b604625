package hist

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/traj"
)

// searchKey identifies one References call: the epoch of the archive
// generation answered against (plus, for composite sharded views, the
// fingerprint of the per-shard epoch vector — see Fingerprinted), the query
// pair (both GPS points carry only coordinates and a timestamp, so the
// struct is comparable) and the complete search parameter set.
type searchKey struct {
	epoch  uint64
	fp     uint64
	qi, qj traj.GPSPoint
	p      SearchParams
}

// SearchCache is a concurrency-safe read-through memo over the reference
// search. Reference search dominates the per-pair cost of inference at
// large φ (Figure 9b), and production workloads repeat query pairs —
// popular origin/destination corridors, benchmark reruns, and the per-pair
// stage of a batch re-visiting the same archive neighborhoods — so
// memoizing by (epoch, q_i, q_{i+1}, params) converts repeats into map
// hits.
//
// Entries are epoch-tagged: a query answered against epoch e can only hit
// a memo recorded at epoch e, so a Store publishing a new snapshot
// implicitly invalidates every older memo. When the cache first observes a
// key from a newer epoch it drops the stale generation wholesale (counted
// by Invalidations) rather than letting dead entries squat in the bound,
// and results computed against epochs older than the newest seen are not
// inserted afterwards — readers still pinned to an old snapshot recompute
// on miss instead of repopulating the map with entries no current reader
// will ever hit.
//
// Returned slices are shared between callers and MUST be treated as
// read-only. Snapshots are immutable, so entries for a given epoch never
// go stale within that epoch.
type SearchCache struct {
	max int

	hits, misses, resets, invalidations atomic.Uint64

	mu    sync.RWMutex
	m     map[searchKey][]Reference
	epoch uint64 // newest epoch seen; results for older epochs are not memoized
}

// DefaultSearchCacheSize bounds the memo; one entry per distinct
// (query pair, params) combination.
const DefaultSearchCacheSize = 1 << 14

// NewSearchCache builds a memo holding at most max entries (max <= 0 uses
// DefaultSearchCacheSize). On overflow the memo resets wholesale — the
// workload is read-heavy with a stable working set, so a rare full reset
// beats per-entry eviction bookkeeping.
func NewSearchCache(max int) *SearchCache {
	if max <= 0 {
		max = DefaultSearchCacheSize
	}
	return &SearchCache{max: max, m: make(map[searchKey][]Reference)}
}

// ReferencesOn returns ReferencesCtx(ctx, v, qi, qj, p), memoized under v's
// epoch. The caller pins v, so that one inference call sees a single
// archive generation even while the underlying Store keeps publishing new
// ones. Safe for concurrent use; the result must not be modified. A search
// cut short by cancellation returns its partial result but is never
// memoized — the cache must only ever serve complete answers.
func (c *SearchCache) ReferencesOn(ctx context.Context, v View, qi, qj traj.GPSPoint, p SearchParams) []Reference {
	ep, fp := EpochKey(v)
	k := searchKey{epoch: ep, fp: fp, qi: qi, qj: qj, p: p}
	c.mu.RLock()
	val, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return val
	}
	c.misses.Add(1)
	val = ReferencesCtx(ctx, v, qi, qj, p)
	if ctx.Err() != nil {
		return val // possibly truncated by cancellation: do not memoize
	}
	c.mu.Lock()
	if k.epoch > c.epoch {
		// A newer generation exists: every memo recorded for older epochs
		// can never be hit again by current readers. Drop them in one sweep
		// rather than evicting lazily.
		if len(c.m) > 0 {
			c.m = make(map[searchKey][]Reference)
			c.invalidations.Add(1)
		}
		c.epoch = k.epoch
	} else if k.epoch < c.epoch {
		// A reader still pinned to an old snapshot: its answer is correct
		// but no current reader can ever hit this key, so inserting it
		// would only let stale entries squat in the bound until the next
		// reset. Serve it unmemoized.
		c.mu.Unlock()
		return val
	}
	if len(c.m) >= c.max {
		// Wholesale reset: cheap, but when the working set exceeds max the
		// cache thrashes — the resets counter makes that visible (it is
		// surfaced through core.Engine.Metrics) instead of silent.
		c.m = make(map[searchKey][]Reference)
		c.resets.Add(1)
	}
	c.m[k] = val
	c.mu.Unlock()
	return val
}

// Len returns the number of memoized entries.
func (c *SearchCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Stats returns the hit and miss counts since construction.
func (c *SearchCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Resets returns how many times the memo reset wholesale on overflow. A
// steadily climbing value means the working set exceeds the bound and the
// cache is thrashing.
func (c *SearchCache) Resets() uint64 { return c.resets.Load() }

// Invalidations returns how many times a newly observed epoch purged the
// previous generation's memos.
func (c *SearchCache) Invalidations() uint64 { return c.invalidations.Load() }
