package graphalg

import (
	"math"
	"sync"
	"time"
)

// Contraction hierarchies [Geisberger et al. 2008]: vertices are
// contracted one by one in importance order; whenever removing a vertex v
// would break a shortest path u→v→x, a shortcut arc u→x of the combined
// weight is inserted. Queries then run a bidirectional Dijkstra that only
// ever moves to higher-ranked vertices, which restricts both searches to
// tiny "upward" cones whose frontiers meet at the apex of the original
// shortest path.

// chArc is one arc of the hierarchy: the original graph's arcs followed by
// the shortcuts added during contraction. Shortcuts remember the two child
// arcs they replaced (a1: from→mid, a2: mid→to) so queries can unpack
// themselves back into original-graph paths; original arcs carry -1.
type chArc struct {
	from, to int32
	w        float64
	a1, a2   int32
}

// CHStats describes a built hierarchy, for logs and /metrics.
type CHStats struct {
	Vertices     int
	OriginalArcs int
	Shortcuts    int
	UpArcs       int
	DownArcs     int
	Build        time.Duration
}

// CH is a contraction-hierarchy DistanceOracle. Build once with BuildCH;
// all queries are safe for concurrent use.
type CH struct {
	n    int
	rank []int32 // contraction order; higher = more important
	arcs []chArc

	// CSR adjacency of the search graphs. up: arcs (u→v) with
	// rank[u] < rank[v], indexed by u. down: the same split's remaining
	// arcs (x→y, rank[x] > rank[y]) indexed by y and traversed backward,
	// so both query searches only climb in rank.
	upOff, upTo, upArc []int32
	upW                []float64
	dnOff, dnTo, dnArc []int32
	dnW                []float64

	stats CHStats
	ws    sync.Pool
}

// witnessSettleCap bounds each witness search during preprocessing. A
// capped search can only miss witnesses, which yields redundant (never
// incorrect) shortcuts.
const witnessSettleCap = 250

type chBuilder struct {
	n          int
	arcs       []chArc
	out, in    [][]int32 // live arc ids per uncontracted vertex
	contracted []bool
	delNbrs    []int32 // contracted-neighbour counts (ordering heuristic)
	rank       []int32

	// witness-search scratch, version-stamped so resets are O(1)
	wDist []float64
	wVer  []uint32
	ver   uint32
	wHeap pq

	nbrMark []bool
	nbrList []int32
}

// BuildCH preprocesses g into a contraction hierarchy.
func BuildCH(g *Graph) *CH {
	start := time.Now()
	n := g.N()
	b := &chBuilder{
		n:          n,
		out:        make([][]int32, n),
		in:         make([][]int32, n),
		contracted: make([]bool, n),
		delNbrs:    make([]int32, n),
		rank:       make([]int32, n),
		wDist:      make([]float64, n),
		wVer:       make([]uint32, n),
		nbrMark:    make([]bool, n),
	}
	orig := 0
	for u := range g.Adj {
		for _, a := range g.Adj[u] {
			if a.To == u {
				continue // self-loops never lie on a shortest path
			}
			id := int32(len(b.arcs))
			b.arcs = append(b.arcs, chArc{from: int32(u), to: int32(a.To), w: a.W, a1: -1, a2: -1})
			b.out[u] = append(b.out[u], id)
			b.in[a.To] = append(b.in[a.To], id)
			orig++
		}
	}

	h := make(pq, 0, n)
	for v := 0; v < n; v++ {
		h.push(pqItem{v: v, dist: b.priority(int32(v))})
	}
	// Lazy re-evaluation: a popped priority may be stale (contractions
	// since it was pushed change edge differences); recompute, and only
	// contract if it still beats the next-best. Ties contract immediately
	// — the heap's (priority, vertex) order keeps that deterministic.
	nextRank := int32(0)
	for len(h) > 0 {
		it := h.pop()
		v := int32(it.v)
		if b.contracted[v] {
			continue
		}
		if np := b.priority(v); len(h) > 0 && np > h[0].dist {
			h.push(pqItem{v: it.v, dist: np})
			continue
		}
		b.contract(v)
		b.rank[v] = nextRank
		nextRank++
	}

	ch := &CH{n: n, rank: b.rank, arcs: b.arcs}
	ch.buildCSR()
	ch.stats = CHStats{
		Vertices:     n,
		OriginalArcs: orig,
		Shortcuts:    len(b.arcs) - orig,
		UpArcs:       len(ch.upTo),
		DownArcs:     len(ch.dnTo),
		Build:        time.Since(start),
	}
	for _, a := range b.arcs[:orig] {
		if a.a1 >= 0 {
			// an original arc overwritten in place by a dominating shortcut
			ch.stats.Shortcuts++
		}
	}
	return ch
}

// priority is the contraction-order heuristic: edge difference (shortcuts
// added minus arcs removed) plus the deleted-neighbour term, which spreads
// contractions evenly across the graph.
func (b *chBuilder) priority(v int32) float64 {
	added, removed := b.simulate(v, nil)
	return float64(2*(added-removed) + int(b.delNbrs[v]))
}

// simulate walks v's contraction: for every in-arc (u→v) and out-arc
// (v→x) between uncontracted endpoints it checks for a witness path u→x
// avoiding v that is no longer than the combined weight; pairs without one
// need a shortcut. When emit is non-nil each needed shortcut is reported.
func (b *chBuilder) simulate(v int32, emit func(inArc, outArc int32, w float64)) (added, removed int) {
	outLive := 0
	var maxOut float64
	for _, oa := range b.out[v] {
		a := b.arcs[oa]
		if b.contracted[a.to] {
			continue
		}
		outLive++
		if a.w > maxOut {
			maxOut = a.w
		}
	}
	for _, ia := range b.in[v] {
		ain := b.arcs[ia]
		u := ain.from
		if b.contracted[u] {
			continue
		}
		removed++
		if outLive == 0 {
			continue
		}
		b.witness(u, v, ain.w+maxOut)
		for _, oa := range b.out[v] {
			aout := b.arcs[oa]
			x := aout.to
			if b.contracted[x] || x == u {
				continue
			}
			w := ain.w + aout.w
			if b.wdist(x) <= w {
				continue // witness path exists; no shortcut needed
			}
			added++
			if emit != nil {
				emit(ia, oa, w)
			}
		}
	}
	removed += outLive
	return added, removed
}

// witness runs a bounded Dijkstra from src over the uncontracted graph
// excluding avoid, stopping past limit or witnessSettleCap settles.
func (b *chBuilder) witness(src, avoid int32, limit float64) {
	b.ver++
	if b.ver == 0 { // uint32 wrap: invalidate all stamps
		clear(b.wVer)
		b.ver = 1
	}
	b.wHeap = b.wHeap[:0]
	b.wDist[src] = 0
	b.wVer[src] = b.ver
	b.wHeap.push(pqItem{v: int(src), dist: 0})
	settled := 0
	for len(b.wHeap) > 0 && settled < witnessSettleCap {
		it := b.wHeap.pop()
		if it.dist > b.wDist[it.v] {
			continue
		}
		if it.dist > limit {
			break
		}
		settled++
		for _, id := range b.out[it.v] {
			a := b.arcs[id]
			if b.contracted[a.to] || a.to == avoid {
				continue
			}
			nd := it.dist + a.w
			if b.wVer[a.to] != b.ver || nd < b.wDist[a.to] {
				b.wDist[a.to] = nd
				b.wVer[a.to] = b.ver
				b.wHeap.push(pqItem{v: int(a.to), dist: nd})
			}
		}
	}
}

func (b *chBuilder) wdist(v int32) float64 {
	if b.wVer[v] != b.ver {
		return math.Inf(1)
	}
	return b.wDist[v]
}

func (b *chBuilder) contract(v int32) {
	b.simulate(v, func(inArc, outArc int32, w float64) {
		b.addShortcut(b.arcs[inArc].from, b.arcs[outArc].to, w, inArc, outArc)
	})
	b.contracted[v] = true
	// Remove v's arcs from the live lists and bump the deleted-neighbour
	// count of each distinct uncontracted neighbour.
	b.nbrList = b.nbrList[:0]
	for _, ia := range b.in[v] {
		if u := b.arcs[ia].from; !b.contracted[u] {
			b.out[u] = dropArc(b.out[u], ia)
			b.markNbr(u)
		}
	}
	for _, oa := range b.out[v] {
		if x := b.arcs[oa].to; !b.contracted[x] {
			b.in[x] = dropArc(b.in[x], oa)
			b.markNbr(x)
		}
	}
	for _, u := range b.nbrList {
		b.nbrMark[u] = false
		b.delNbrs[u]++
	}
	b.in[v], b.out[v] = nil, nil
}

func (b *chBuilder) markNbr(u int32) {
	if !b.nbrMark[u] {
		b.nbrMark[u] = true
		b.nbrList = append(b.nbrList, u)
	}
}

// dropArc removes the first occurrence of id, preserving order so the
// build stays deterministic.
func dropArc(list []int32, id int32) []int32 {
	for i, x := range list {
		if x == id {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// addShortcut inserts a shortcut u→x, replacing an existing live parallel
// arc when strictly shorter. The in-place overwrite is safe: every arc a
// shortcut references is incident to the vertex contracted when it was
// made, so an arc between two still-uncontracted vertices is referenced by
// no one.
func (b *chBuilder) addShortcut(u, x int32, w float64, a1, a2 int32) {
	for _, id := range b.out[u] {
		a := &b.arcs[id]
		if a.to == x {
			if a.w <= w {
				return
			}
			a.w, a.a1, a.a2 = w, a1, a2
			return
		}
	}
	id := int32(len(b.arcs))
	b.arcs = append(b.arcs, chArc{from: u, to: x, w: w, a1: a1, a2: a2})
	b.out[u] = append(b.out[u], id)
	b.in[x] = append(b.in[x], id)
}

// buildCSR splits the arcs by rank direction into the two flat search
// graphs, in arc-id order (deterministic).
func (ch *CH) buildCSR() {
	n := ch.n
	upCnt := make([]int32, n+1)
	dnCnt := make([]int32, n+1)
	for _, a := range ch.arcs {
		if ch.rank[a.from] < ch.rank[a.to] {
			upCnt[a.from+1]++
		} else {
			dnCnt[a.to+1]++
		}
	}
	for i := 0; i < n; i++ {
		upCnt[i+1] += upCnt[i]
		dnCnt[i+1] += dnCnt[i]
	}
	ch.upOff, ch.dnOff = upCnt, dnCnt
	nu, nd := upCnt[n], dnCnt[n]
	ch.upTo = make([]int32, nu)
	ch.upW = make([]float64, nu)
	ch.upArc = make([]int32, nu)
	ch.dnTo = make([]int32, nd)
	ch.dnW = make([]float64, nd)
	ch.dnArc = make([]int32, nd)
	upFill := make([]int32, n)
	dnFill := make([]int32, n)
	for id, a := range ch.arcs {
		if ch.rank[a.from] < ch.rank[a.to] {
			p := ch.upOff[a.from] + upFill[a.from]
			upFill[a.from]++
			ch.upTo[p], ch.upW[p], ch.upArc[p] = a.to, a.w, int32(id)
		} else {
			p := ch.dnOff[a.to] + dnFill[a.to]
			dnFill[a.to]++
			ch.dnTo[p], ch.dnW[p], ch.dnArc[p] = a.from, a.w, int32(id)
		}
	}
}

// Stats reports preprocessing statistics.
func (ch *CH) Stats() CHStats { return ch.stats }
