package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/traj"
)

// pairKey identifies one pair outcome: the epoch of the archive generation
// answered against (see hist.View), the query pair and the parameters with
// Deadline zeroed. A pair's outcome depends on nothing else — §III treats
// pairs independently until K-GRI joins them — and Deadline only bounds the
// work: no outcome it cut short is memoized.
type pairKey struct {
	epoch  uint64
	qi, qj traj.GPSPoint
	p      Params
}

// pairMemo is a concurrency-safe read-through memo over exec.inferPair's
// outcome, keyed by pairKey. A hit skips the whole per-pair stage: reference
// search, context assembly, local inference and the fallback. It pays where
// query pairs repeat exactly (the benchmark's infer-replay) and never hits on
// fresh traffic, so it retains only what may be asked again:
//
//   - Admission: a key is memoized on its second miss, never its first.
//     A direct-mapped doorkeeper of key hashes (TinyLFU's, Einziger et al.)
//     remembers first sightings; a first sighting is answered unretained,
//     without the write lock, and is counted by declined. A server answering
//     never-repeated queries retains nothing.
//   - A byte bound (see entryBytes) on what was admitted, reset wholesale on
//     overflow (counted by resets).
//
// Entries are epoch-tagged: a query answered against epoch e can only hit an
// outcome recorded at epoch e, so a Store publishing a new snapshot
// implicitly invalidates every older one. The first key from a newer epoch,
// admitted or not, drops the stale generation wholesale (counted by
// invalidations), and readers still pinned to an older snapshot compute on
// miss without repopulating the map.
//
// An entry's local routes are shared between callers, who MUST treat them as
// read-only: nothing writes into a LocalRoute's Route or Refs or appends into
// a Result's Locals[i]. Snapshots are immutable, so an entry never goes
// stale in its epoch.
type pairMemo struct {
	max int // bound on bytes, see entryBytes

	hits, misses, declined, resets, invalidations atomic.Uint64

	// door is the doorkeeper: slot hash>>doorShift holds the hash of the last
	// key that missed there, 0 for none. Two keys sharing a slot evict each
	// other's sighting, which can only delay an admission.
	door [1 << doorBits]atomic.Uint64
	// epoch is the newest epoch seen; outcomes for older epochs are not
	// memoized. Written under mu, read by first sightings without it.
	epoch atomic.Uint64

	mu    sync.RWMutex
	m     map[pairKey]pairOutcome
	bytes int // retained by m, see entryBytes
}

// The doorkeeper has 1<<doorBits slots (64 KiB), indexed by a key hash's top
// bits.
const (
	doorBits  = 13
	doorShift = 64 - doorBits
)

// pairMemoBytes bounds what an engine's memo retains: about 2,000 pairs of
// ten local routes.
const pairMemoBytes = 8 << 20

var pairSeed = maphash.MakeSeed()

// hash is k's hash with the low bit forced, so that no key hashes to an
// empty doorkeeper slot's 0. A key holding a NaN hashes at random, so it is
// never admitted: it could never be hit.
func (k *pairKey) hash() uint64 { return maphash.Comparable(pairSeed, *k) | 1 }

// entryBytes is what memoizing out retains: key, outcome, local routes and
// each route's segments and reference ids (map bucket overhead is not
// counted).
func entryBytes(out pairOutcome) int {
	n := int(unsafe.Sizeof(pairKey{})+unsafe.Sizeof(out)) + cap(out.locals)*int(unsafe.Sizeof(LocalRoute{}))
	for _, l := range out.locals {
		n += len(l.Route)*int(unsafe.Sizeof(l.Route[0])) + len(l.Refs)*int(unsafe.Sizeof(l.Refs[0]))
	}
	return n
}

// newPairMemo builds a memo retaining at most maxBytes (see entryBytes). On
// overflow it resets wholesale: a working set that fits is never evicted,
// one that does not thrashes (see resets).
func newPairMemo(maxBytes int) *pairMemo {
	return &pairMemo{max: maxBytes, m: make(map[pairKey]pairOutcome)}
}

// get returns k's memoized outcome. A miss must be followed by put once the
// outcome is known complete, or by nothing.
func (c *pairMemo) get(k pairKey) (pairOutcome, bool) {
	c.mu.RLock()
	out, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return out, ok
}

// put offers out, the complete outcome computed for k after a miss: a first
// sighting is remembered and not retained, a second one is admitted.
func (c *pairMemo) put(k pairKey, out pairOutcome) {
	if h := k.hash(); c.door[h>>doorShift].Swap(h) != h {
		// First sighting: remember it, retain nothing. A newer generation
		// still retires the old one, exactly as an admission would.
		c.declined.Add(1)
		if k.epoch > c.epoch.Load() {
			c.mu.Lock()
			c.advance(k.epoch)
			c.mu.Unlock()
		}
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[k]; dup || k.epoch < c.epoch.Load() {
		// Either a concurrent miss on the same key got here first (identical
		// outcome, bytes already counted), or the reader is still pinned to an
		// old snapshot: no current reader can hit its key, so inserting it
		// would only squat in the bound.
		return
	}
	c.advance(k.epoch)
	if len(out.locals) > 0 { // exact size: drops the routes the cap cut off
		out.locals = append(make([]LocalRoute, 0, len(out.locals)), out.locals...)
	}
	n := entryBytes(out)
	if c.bytes+n > c.max && len(c.m) > 0 {
		// Wholesale reset: cheap, but a working set beyond max thrashes — the
		// resets counter (cache.refsearch.resets in Engine.Metrics) shows it.
		c.m, c.bytes = make(map[pairKey]pairOutcome), 0
		c.resets.Add(1)
	}
	c.m[k] = out
	c.bytes += n
}

// advance moves the memo to epoch when it is newer than any seen: outcomes of
// older epochs can never be hit again by current readers, so they are
// dropped in one sweep rather than evicted lazily. The caller holds mu.
func (c *pairMemo) advance(epoch uint64) {
	if epoch <= c.epoch.Load() {
		return
	}
	if len(c.m) > 0 {
		c.m, c.bytes = make(map[pairKey]pairOutcome), 0
		c.invalidations.Add(1)
	}
	c.epoch.Store(epoch)
}

// size returns the number of memoized entries and the bytes they retain.
func (c *pairMemo) size() (entries, bytes int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m), c.bytes
}
