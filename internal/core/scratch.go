package core

import (
	"sync"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/hist"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/rtree"
)

// pairScratch is the per-worker scratch arena of the inference hot path:
// every buffer the per-pair stage (context assembly, TGI, NNI, scoring)
// needs, pooled so that steady-state queries stop allocating. One scratch
// serves one goroutine at a time — each InferRoutes worker checks one out
// for its whole run and recycles it across the pairs it processes.
//
// Ownership rule (DESIGN.md "Memory discipline"): scratch-backed memory
// never crosses a stage boundary. Everything a pair publishes — Route
// slices, Refs id lists, trace copies — is freshly allocated at exact size
// before it leaves the pair; the arena is only ever read through the
// pairContext that borrowed it.
type pairScratch struct {
	// pctx is the reusable pairContext shell buildPairContext hands out.
	pctx pairContext

	// search is the reference search's scratch; between one worker's
	// consecutive pairs it also carries the shared query point's near set
	// (dropped by putScratch: the pool must not pin an archive generation).
	search hist.Searcher

	// Interner: the pair's distinct archive trajectory ids, sorted, so a
	// dense bit index replaces the map[int]struct{} reference sets.
	idBuf  []int32 // raw source ids before sort/dedup
	ids    []int32 // sorted unique ids; bit i of a set = ids[i]
	srcIdx []int32 // dense indices of the current reference's sources

	// Per-edge reference bitsets: slot k (edge edges[k]) owns
	// bits[k*words : (k+1)*words]. edgeSlot/edgeVer are stamped arrays
	// indexed by EdgeID — a slot is live only when its version matches
	// ever, so "clearing" the map between pairs is one counter increment.
	bits     []uint64
	edges    []roadnet.EdgeID
	edgeSlot []int32
	edgeVer  []uint32
	ever     uint32

	points []refPoint

	// Scoring buffers (Equation 1).
	counts []float64
	union  []uint64

	// Route dedup: integer hash buckets with collision verification,
	// replacing the string-key seen map.
	seenRoutes map[uint64][]roadnet.Route

	// TGI.
	sorted           []roadnet.EdgeID // traverse edges, sorted
	tgEdges          []roadnet.EdgeID // traverse-graph node -> edge
	nodeSlot         []int32          // stamped EdgeID -> node index
	nodeVer          []uint32
	nver             uint32
	hops             []int
	tg               graphalg.Graph
	mid              []geo.Point
	comp             []int
	redW             []map[int]float64
	redKs            []int
	srcCand, dstCand []roadnet.EdgeID
	routeBuf         roadnet.Route

	// NNI.
	dedupIdx  map[[2]int]int32
	nniPoints []refPoint
	entries   []rtree.Entry[int]
	nnIter    rtree.NearestIter[int]
	nn        []int
	succArena []int
	memoOff   []int32
	memoLen   []int32
	onPath    []bool
	trace     []int
	traces    [][]int
	ptsBuf    []geo.Point
	pj        *mapmatch.Projector
}

// pairScratchPool recycles scratch arenas across queries. The pool is
// package-level (not per engine) so engines created per test or per request
// still share warmed buffers.
var pairScratchPool = sync.Pool{New: func() any { return newPairScratch() }}

func newPairScratch() *pairScratch {
	return &pairScratch{
		seenRoutes: make(map[uint64][]roadnet.Route),
		dedupIdx:   make(map[[2]int]int32),
	}
}

// getScratch checks a scratch arena out for one worker. With noPool set
// (the pooled-vs-unpooled equivalence tests) every call gets a fresh arena,
// which must behave identically to a recycled one.
func (e *Engine) getScratch() *pairScratch {
	if e.noPool {
		return newPairScratch()
	}
	return pairScratchPool.Get().(*pairScratch)
}

func (e *Engine) putScratch(sc *pairScratch) {
	if e.noPool {
		return
	}
	sc.search.Release()
	pairScratchPool.Put(sc)
}

// beginPair resets the per-pair state for a road network with nseg
// segments: the edge-bitset arena empties and the stamped edge map clears
// by version bump. Route dedup state clears too.
func (sc *pairScratch) beginPair(nseg int) {
	if len(sc.edgeSlot) < nseg {
		sc.edgeSlot = make([]int32, nseg)
		sc.edgeVer = make([]uint32, nseg)
		sc.ever = 0
	}
	sc.ever++
	if sc.ever == 0 { // uint32 wrap: stale versions could collide, clear
		for i := range sc.edgeVer {
			sc.edgeVer[i] = 0
		}
		sc.ever = 1
	}
	sc.edges = sc.edges[:0]
	sc.bits = sc.bits[:0]
	clear(sc.seenRoutes)
}

// beginNodes resets the stamped EdgeID -> traverse-graph-node map.
func (sc *pairScratch) beginNodes(nseg int) {
	if len(sc.nodeSlot) < nseg {
		sc.nodeSlot = make([]int32, nseg)
		sc.nodeVer = make([]uint32, nseg)
		sc.nver = 0
	}
	sc.nver++
	if sc.nver == 0 {
		for i := range sc.nodeVer {
			sc.nodeVer[i] = 0
		}
		sc.nver = 1
	}
}

// FNV-1a, shared by the route/path dedup hashes and the gate's query hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix64 folds v's eight bytes (little-endian, low byte first) into h —
// bit-identical to writing the same bytes through hash/fnv's New64a.
func fnvMix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// hashEdges folds a route's edge-id sequence into an FNV-1a hash.
func hashEdges(r roadnet.Route) uint64 {
	h := uint64(fnvOffset64)
	for _, e := range r {
		h = fnvMix64(h, uint64(int64(e)))
	}
	return h
}

// routeSeen reports whether an identical edge sequence was already recorded
// this pair, recording r otherwise. Hash buckets are verified element-wise,
// so a (vanishingly unlikely) collision can never drop a distinct route —
// the dedup is exactly Route.Key equality without the string allocation.
func (sc *pairScratch) routeSeen(r roadnet.Route) bool {
	h := hashEdges(r)
	for _, prev := range sc.seenRoutes[h] {
		if prev.Equal(r) {
			return true
		}
	}
	sc.seenRoutes[h] = append(sc.seenRoutes[h], r)
	return false
}

// kgriScratch pools the K-GRI candidate buffer. The pool is shared
// regardless of Engine.noPool: the buffer's content is truncated and fully
// rewritten before every read, so recycling cannot change an outcome.
type kgriScratch struct {
	cands []kgriCand
}

var kgriPool = sync.Pool{New: func() any { return new(kgriScratch) }}
