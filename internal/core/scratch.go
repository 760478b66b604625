package core

import (
	"sync"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/hist"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
)

// pairScratch is the per-worker scratch arena of the inference hot path:
// every buffer the per-pair stage (context assembly, TGI, NNI, scoring)
// needs, pooled so that steady-state queries stop allocating. One scratch
// serves one goroutine at a time — each InferRoutes worker checks one out
// for its whole run and recycles it across the pairs it processes.
//
// Ownership rule (DESIGN.md "Memory discipline"): scratch-backed memory
// never crosses a stage boundary. Everything a pair publishes — Route
// slices (copied out by routeSeen), Refs id lists — is freshly allocated at
// exact size before it leaves the pair; the arena is only ever read through
// the pairContext that borrowed it.
type pairScratch struct {
	// pctx is the reusable pairContext shell buildPairContext hands out.
	pctx pairContext

	// search is the reference search's scratch; between one worker's
	// consecutive pairs it also carries the shared query point's near set
	// (dropped by putScratch: the pool must not pin an archive generation).
	search hist.Searcher

	// Interner: the pair's distinct archive trajectory ids, sorted, so a
	// dense bit index replaces the map[int]struct{} reference sets.
	idBuf []int32 // raw source ids before sort/dedup
	ids   []int32 // sorted unique ids; bit i of a set = ids[i]

	// Per-edge reference bitsets: slot k (edge edges[k]) owns
	// bits[k*words : (k+1)*words]. edgeSlot/edgeVer are stamped arrays
	// indexed by EdgeID — a slot is live only when its version matches
	// ever, so "clearing" the map between pairs is one counter increment.
	bits     []uint64
	edges    []roadnet.EdgeID
	edgeSlot []int32
	edgeVer  []uint32
	ever     uint32
	slotRun  []int32 // per slot: the last spliceRun that listed its edge

	points []refPoint
	tabs   []*trajMatch // the pair's match tables, one per trajectory; refPoint.tab indexes them

	// Per-run assembly of spliced references (see spliceRun): per dense id
	// its table and runs, per run its edge slots and prefix counts.
	idSlots  []idSlot
	runs     []spliceRun
	runEdges []int32
	runPre   []int32

	// Scoring buffers (Equation 1).
	counts []float64
	union  []uint64

	// Route dedup: the routes published this pair and their hashes.
	seen     []roadnet.Route
	seenHash []uint64

	// bridges memoises the pair's shortest-path bridges, for TGI's path
	// projection and NNI's trace projector alike.
	bridges roadnet.Bridges

	// TGI.
	sorted           []roadnet.EdgeID // traverse edges, sorted
	tgEdges          []roadnet.EdgeID // traverse-graph node -> edge
	nodeSlot         []int32          // stamped EdgeID -> node index
	nodeVer          []uint32
	nver             uint32
	hopSearch        graphalg.HopSearch // λ-neighbourhood BFS
	links            []int32            // one node's λ-neighbours, as node indices
	tg               graphalg.Graph
	ksp              graphalg.KShortest // bound to tg by inferTGI
	mid              []geo.Point
	comp             []int
	redOff, redTo    []int32   // reduceTraverseGraph's CSR rows
	redW             []float64 // their weights; +Inf = removed
	redSlot, redWit  []int32   // its per-row target index and witness counts
	srcCand, dstCand []roadnet.EdgeID
	routeBuf         roadnet.Route

	// NNI. nniPts is the pair's point table — q_i, one reference point per
	// grid cell, q_{i+1} — that transit-graph nodes, traces and the projector
	// all index; nniSrc[i-1] is the archive sample table point i is.
	dedupIdx  map[uint64]int32 // grid cell → table index
	nniPts    []geo.Point
	nniSrc    []sampleID
	toDest    []float64 // table point → distance to q_{i+1}
	nn        []int     // constrained-kNN slots: the nearest admissible points…
	nnD       []float64 // …and their distances from the node, ascending
	succArena []int
	memoOff   []int32
	memoLen   []int32
	onPath    []bool
	path      []int // the DFS stack
	traces    []int // every enumerated trace, back to back
	traceOff  []int // trace t is traces[traceOff[t]:traceOff[t+1]]
	pj        mapmatch.Projector
}

// pairScratchPool recycles scratch arenas across queries. The pool is
// package-level (not per engine) so engines created per test or per request
// still share warmed buffers.
var pairScratchPool = sync.Pool{New: func() any { return newPairScratch() }}

func newPairScratch() *pairScratch {
	return &pairScratch{dedupIdx: make(map[uint64]int32)}
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
// by version bump. Route dedup state clears too; buildPairContext resets
// the bridge memo beside it.
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
	sc.edges, sc.slotRun = sc.edges[:0], sc.slotRun[:0]
	sc.bits = sc.bits[:0]
	clear(sc.seen) // let go of the previous pair's published routes
	sc.seen, sc.seenHash = sc.seen[:0], sc.seenHash[:0]
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

// FNV-1a, shared by the route and path dedup hashes.
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

// routeSeen is the one way a local route leaves the arena. r is scratch-
// backed (TGI's routeBuf, the projector's buffer); when an identical edge
// sequence was already published this pair it reports seen, otherwise it
// records and returns r's exact-size heap copy — a duplicate never allocates.
// Hash matches are verified element-wise, so the dedup is exactly Route
// equality.
func (sc *pairScratch) routeSeen(r roadnet.Route) (pub roadnet.Route, seen bool) {
	h := hashEdges(r)
	for i, ph := range sc.seenHash {
		if ph == h && sc.seen[i].Equal(r) {
			return nil, true
		}
	}
	pub = make(roadnet.Route, len(r))
	copy(pub, r)
	sc.seen, sc.seenHash = append(sc.seen, pub), append(sc.seenHash, h)
	return pub, false
}

// CandidateRow implements mapmatch.RowSource over the pair's point table: an
// archive sample's candidate edges are its match-table row, which holds
// exactly CandidateEdges(p, CandEps) in order. The query points (first and
// last table slot) have no row.
func (sc *pairScratch) CandidateRow(i int, dst []roadnet.EdgeID) []roadnet.EdgeID {
	if i == 0 || i > len(sc.nniSrc) {
		return dst
	}
	s := sc.nniSrc[i-1]
	t := sc.tabs[s.tab]
	for _, c := range t.cands[t.off[s.k]:t.off[s.k+1]] {
		dst = append(dst, roadnet.EdgeID(c>>matchBits))
	}
	return dst
}
