package core

import (
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/traj"
)

// queryKey identifies one query's answer: the archive epoch (see hist.View),
// Params with Deadline zeroed, which only bounds the work, and the query's
// points as raw bytes, a view of the caller's slice until put clones it.
// The map compares keys whole, so no hash collision serves a wrong answer.
type queryKey struct {
	epoch  uint64
	p      Params
	points string
}

func newQueryKey(epoch uint64, p Params, points []traj.GPSPoint) queryKey {
	p.Deadline = 0
	return queryKey{epoch, p, unsafe.String((*byte)(unsafe.Pointer(unsafe.SliceData(points))), len(points)*int(unsafe.Sizeof(traj.GPSPoint{})))}
}

// hash is k's doorkeeper hash with the low bit forced, so that no key hashes
// to an empty slot's 0. Params holding a NaN hash at random, so such a key
// is never admitted: it could never be hit.
func (k queryKey) hash() uint64 { return maphash.Comparable(querySeed, k) | 1 }

// queryEntry is one memoized answer and the bytes it retains.
type queryEntry struct {
	res   Result
	bytes int
}

// queryMemo is a concurrency-safe read-through memo of whole-query answers,
// consulted by Engine.InferRoutesCtx before it builds a session: a hit runs
// no pair, no K-GRI join and no materialization. It pays where queries
// repeat exactly (the benchmark's infer-replay), so it retains only what may
// be asked again:
//
//   - Admission on a key's second miss: a direct-mapped doorkeeper of key
//     hashes (TinyLFU's, Einziger et al.) remembers first sightings, which
//     are answered unretained and counted by declined.
//   - A byte bound (see retain), reset wholesale on overflow (resets).
//   - Epoch tags: the first key of a newer epoch, admitted or not, drops the
//     older generation (invalidations); readers pinned to an older snapshot
//     compute on miss without repopulating the map.
//
// A hit is a shallow copy of the entry's Result: callers may reassign its
// fields, but its slices are shared and read-only, as LocalRoutes always
// are; each has len == cap, so an append reallocates.
type queryMemo struct {
	max int // bound on bytes, see retain

	hits, misses, declined, resets, invalidations atomic.Uint64

	// door slot hash>>doorShift holds the hash of the last key that missed
	// there, 0 for none; keys sharing a slot can only delay an admission.
	door [1 << doorBits]atomic.Uint64
	// epoch is the newest epoch seen: written under mu, read without it.
	epoch atomic.Uint64

	mu    sync.RWMutex
	m     map[queryKey]*queryEntry
	bytes int
}

// The doorkeeper has 1<<doorBits slots (64 KiB), indexed by hash top bits.
const (
	doorBits  = 13
	doorShift = 64 - doorBits
)

// queryMemoBytes bounds what an engine's memo retains.
const queryMemoBytes = 8 << 20

var querySeed = maphash.MakeSeed()

// newQueryMemo builds a memo retaining at most maxBytes.
func newQueryMemo(maxBytes int) *queryMemo {
	return &queryMemo{max: maxBytes, m: make(map[queryKey]*queryEntry)}
}

// get returns k's memoized answer as a fresh shallow copy. A miss must be
// followed by put once the answer is known complete, or by nothing.
func (c *queryMemo) get(k *queryKey) (*Result, bool) {
	c.mu.RLock()
	e := c.m[*k]
	c.mu.RUnlock()
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	res := e.res
	return &res, true
}

// put offers res, the complete answer computed for k after a miss: a first
// sighting is remembered and not retained, a second one is admitted.
func (c *queryMemo) put(k *queryKey, res *Result) {
	if h := k.hash(); c.door[h>>doorShift].Swap(h) != h {
		// First sighting: a newer generation still retires the old one.
		c.declined.Add(1)
		if k.epoch > c.epoch.Load() {
			c.mu.Lock()
			c.advance(k.epoch)
			c.mu.Unlock()
		}
		return
	}
	if k.epoch < c.epoch.Load() {
		return // no current reader can hit it; checked again under mu
	}
	e := retain(k, res)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[*k]; dup || k.epoch < c.epoch.Load() {
		// A concurrent miss got here first, or the reader is pinned to an
		// old snapshot and its entry would only squat in the bound.
		return
	}
	c.advance(k.epoch)
	if c.bytes+e.bytes > c.max && len(c.m) > 0 {
		c.m, c.bytes = make(map[queryKey]*queryEntry), 0
		c.resets.Add(1)
	}
	c.m[queryKey{k.epoch, k.p, strings.Clone(k.points)}] = e
	c.bytes += e.bytes
}

// advance moves the memo to epoch when it is newer than any seen, dropping
// the older generation in one sweep. The caller holds mu.
func (c *queryMemo) advance(epoch uint64) {
	if epoch <= c.epoch.Load() {
		return
	}
	if len(c.m) > 0 {
		c.m, c.bytes = make(map[queryKey]*queryEntry), 0
		c.invalidations.Add(1)
	}
	c.epoch.Store(epoch)
}

// size returns the number of memoized entries and the bytes they retain.
func (c *queryMemo) size() (entries, bytes int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m), c.bytes
}

// retain copies res into an entry, every slice at exact size, and counts
// what it and k retain: key and entry, the query's points, the global routes
// with their segments and parts, the pair statistics and the local-route
// sets with each route's segments and reference ids (map overhead aside).
func retain(k *queryKey, res *Result) *queryEntry {
	e := &queryEntry{res: Result{Routes: exact(res.Routes), Pairs: exact(res.Pairs), Locals: exact(res.Locals)}}
	n := int(unsafe.Sizeof(*k)+unsafe.Sizeof(*e)) + len(k.points) + size(e.res.Routes) + size(e.res.Pairs) + size(e.res.Locals)
	for i := range e.res.Routes {
		r := &e.res.Routes[i]
		r.Route, r.Parts = exact(r.Route), exact(r.Parts)
		n += size(r.Route) + size(r.Parts)
	}
	for i, set := range e.res.Locals {
		set = exact(set)
		for j := range set {
			l := &set[j]
			l.Route, l.Refs = exact(l.Route), exact(l.Refs)
			n += size(l.Route) + size(l.Refs)
		}
		e.res.Locals[i] = set
		n += size(set)
	}
	e.bytes = n
	return e
}

// exact copies s into a slice whose cap is its length; nil stays nil.
func exact[T any](s []T) []T { return slices.Clip(slices.Clone(s)) }

// size is the bytes s's elements occupy.
func size[T any](s []T) int { return len(s) * int(unsafe.Sizeof(*new(T))) }
