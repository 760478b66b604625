package graphalg

import (
	"math"
	"slices"
	"sync"
)

// KShortest computes K loopless shortest paths with Yen's algorithm [Yen
// 1971] — the K-shortest-path subroutine of TGI (Algorithm 1, line 13) — by
// searches that know where the destination is. The zero value is ready; Reset
// binds a graph, Paths answers on it. One solver serves one goroutine and owns
// every buffer it works in, so a warm solver allocates nothing.
//
// Per destination it runs one reverse Dijkstra and keeps h[v], the exact
// distance v→dst, until the next Reset. The first search and every spur
// search then run goal-directed on the key g+h[v]: Yen's bans only remove
// vertices and arcs, so h stays a consistent lower bound on every spur graph.
// Results are those of plain Dijkstra spur searches, bit for bit: labels are
// the same left-to-right float sums, a predecessor obeys the same rule (of
// those that tie exactly, the smallest vertex), and a search does not stop
// when dst first pops but drains every key within slack of dist[dst], so each
// predecessor plain Dijkstra would have settled before dst is settled too.
//
// Arc weights must be strictly positive. With a zero-weight arc the result is
// still K loopless paths in nondecreasing weight, but which of several
// exactly tied paths is returned is unspecified.
type KShortest struct {
	g *Graph

	// Reverse adjacency in CSR form: the arcs into v are
	// rfrom/rw[roff[v]:roff[v+1]].
	roff, rfrom []int32
	rw          []float64

	// Cached potentials: pot[i*n:(i+1)*n] is h toward potDst[i].
	potDst []int
	pot    []float64

	// A label is live when stamped with the current version: a search starts
	// with one increment, not an O(n) reset.
	lab  []label
	ver  uint32
	heap pq

	// Yen's lists: known[:nres] are the results, the rest the candidates,
	// each an (offset, length) window of one vertex arena.
	arena  []int
	known  []arenaPath
	nres   int
	prefix []float64 // prefix[i] = weight of the previous path's first i arcs
	heads  []int
	out    []Path
}

type label struct {
	dist float64
	prev int32
	ver  uint32
}

type arenaPath struct {
	off, n int
	w      float64
}

// slack is the relative key margin past dist[dst] a search drains. Keys along
// exactly tied paths differ from dist[dst] only by float rounding (h is summed
// from the far end), orders of magnitude below it.
const slack = 1e-9

// Reset binds the solver to g, which must not change until the next Reset,
// and drops the potentials cached for the previous graph.
func (s *KShortest) Reset(g *Graph) {
	n := g.N()
	s.g = g
	s.potDst = s.potDst[:0]
	// Counting sort by head: in-degrees go two slots up, so that after the
	// prefix sums off[v+1] is row v's fill cursor and ends as row v+1's start.
	off := slices.Grow(s.roff[:0], n+2)[:n+2]
	clear(off)
	m := 0
	for _, arcs := range g.Adj {
		m += len(arcs)
		for _, a := range arcs {
			off[a.To+2]++
		}
	}
	for v := 2; v < n+2; v++ {
		off[v] += off[v-1]
	}
	from, w := slices.Grow(s.rfrom[:0], m)[:m], slices.Grow(s.rw[:0], m)[:m]
	for u, arcs := range g.Adj {
		for _, a := range arcs {
			from[off[a.To+1]], w[off[a.To+1]] = int32(u), a.W
			off[a.To+1]++
		}
	}
	s.roff, s.rfrom, s.rw = off[:n+1], from, w
	if cap(s.lab) < n {
		s.lab, s.ver = make([]label, n), 0
	}
	s.lab = s.lab[:n]
}

// potential returns h toward dst, building it by one reverse Dijkstra on
// first sight and keeping it — n floats per distinct destination — until the
// next Reset. A build stopped by done caches nothing and returns nil.
func (s *KShortest) potential(done <-chan struct{}, dst int) []float64 {
	n := s.g.N()
	for i, d := range s.potDst {
		if d == dst {
			return s.pot[i*n : (i+1)*n]
		}
	}
	i := len(s.potDst)
	s.pot = slices.Grow(s.pot[:i*n], n)
	h := s.pot[i*n : (i+1)*n]
	for v := range h {
		h[v] = math.Inf(1)
	}
	h[dst] = 0
	heap := append(s.heap[:0], pqItem{v: dst})
	pops := 0
	for len(heap) > 0 {
		if pops++; pops&(stride-1) == 0 && Stopped(done) {
			return nil
		}
		it := heap.pop()
		if it.dist > h[it.v] {
			continue
		}
		for a := s.roff[it.v]; a < s.roff[it.v+1]; a++ {
			if u, nd := s.rfrom[a], it.dist+s.rw[a]; nd < h[u] {
				h[u] = nd
				heap.push(pqItem{v: int(u), dist: nd})
			}
		}
	}
	s.heap = heap
	s.potDst = append(s.potDst, dst)
	return h
}

// search runs the goal-directed search from src to dst on the graph without
// the vertices of root and without the arcs from src to heads, leaving labels
// in s.lab under a fresh version. It returns dist[dst] (+Inf when dst is cut
// off) and false when done stopped it, in which case the labels mean nothing.
func (s *KShortest) search(done <-chan struct{}, src, dst int, h []float64, root, heads []int) (float64, bool) {
	if s.ver++; s.ver == 0 { // uint32 wrap: stale versions could collide, clear
		clear(s.lab)
		s.ver = 1
	}
	lab, ver, adj := s.lab, s.ver, s.g.Adj
	// A banned vertex carries a label no arc can improve or tie.
	for _, v := range root {
		lab[v] = label{dist: math.Inf(-1), ver: ver}
	}
	lab[src] = label{prev: -1, ver: ver}
	if src == dst {
		return 0, true
	}
	// Nothing whose key exceeds limit can tie the best path found: it is
	// neither labelled nor expanded.
	best, limit := math.Inf(1), math.MaxFloat64
	heap := s.heap[:0]
	relax := func(u int, du float64, a Arc) {
		nd := du + a.W
		l := &lab[a.To]
		if l.ver == ver && nd >= l.dist {
			// Of predecessors that tie exactly keep the smallest: the path
			// is then a function of the graph's arcs, not of their insertion
			// or settling order. a.W > 0 keeps the relation acyclic.
			if nd == l.dist && a.W > 0 && int32(u) < l.prev {
				l.prev = int32(u)
			}
			return
		}
		key := nd + h[a.To]
		if key > limit { // includes h = +Inf: dst is out of a.To's reach
			return
		}
		*l = label{dist: nd, prev: int32(u), ver: ver}
		heap.push(pqItem{v: a.To, dist: key})
		if a.To == dst {
			best, limit = nd, nd*(1+slack)
		}
	}
	for _, a := range adj[src] {
		if !slices.Contains(heads, a.To) {
			relax(src, 0, a)
		}
	}
	pops := 0
	for len(heap) > 0 {
		if pops++; pops&(stride-1) == 0 && Stopped(done) {
			return 0, false
		}
		it := heap.pop()
		if it.dist > limit {
			break
		}
		du := lab[it.v].dist
		if it.v == dst || it.dist > du+h[it.v] {
			continue // dst's own arcs lead nowhere new; a stale entry
		}
		for _, a := range adj[it.v] {
			relax(it.v, du, a)
		}
	}
	s.heap = heap
	return best, true
}

// Paths returns up to k loopless paths from src to dst in nondecreasing
// weight order, equal weights in lexicographic vertex order from the second
// path on; nil for k ≤ 0, an index outside the graph, an unreachable dst or a
// solver never Reset. The returned slice and its vertex sequences are the
// solver's own memory, valid until the next Paths or Reset.
//
// done (nil = uncancellable) is polled before every spur search, before a
// candidate is promoted, and every stride heap pops inside a search. Once it
// is closed, Paths returns the paths completed so far — a valid prefix of the
// full answer, possibly empty; a search it interrupted contributes nothing.
func (s *KShortest) Paths(done <-chan struct{}, src, dst, k int) []Path {
	if s.g == nil || k <= 0 || src < 0 || src >= s.g.N() || dst < 0 || dst >= s.g.N() {
		return nil
	}
	h := s.potential(done, dst)
	if h == nil || math.IsInf(h[src], 1) {
		return nil
	}
	s.arena, s.known, s.nres = s.arena[:0], s.known[:0], 0
	d, ok := s.search(done, src, dst, h, nil, nil)
	if !ok {
		return nil
	}
	s.known, s.nres = append(s.known, s.appendPath(nil, src, dst, d)), 1

yen:
	for s.nres < k {
		last := s.vertices(s.known[s.nres-1])
		// Root weights: the fold over the lightest arc between consecutive
		// vertices, left to right — one pass per previous path.
		s.prefix = append(s.prefix[:0], 0)
		for i := 1; i < len(last); i++ {
			w := math.Inf(1)
			for _, a := range s.g.Adj[last[i-1]] {
				if a.To == last[i] && a.W < w {
					w = a.W
				}
			}
			s.prefix = append(s.prefix, s.prefix[i-1]+w)
		}
		// Each vertex of the previous path (except the last) is a spur node.
		for i := 0; i < len(last)-1; i++ {
			if Stopped(done) {
				break yen
			}
			// Ban the arcs that would recreate a known path with the same
			// root — they all leave the spur node, so their heads suffice —
			// and the root's vertices, to keep paths loopless.
			s.heads = s.heads[:0]
			for _, p := range s.known {
				if v := s.vertices(p); len(v) > i+1 && slices.Equal(v[:i+1], last[:i+1]) {
					s.heads = append(s.heads, v[i+1])
				}
			}
			d, ok := s.search(done, last[i], dst, h, last[:i], s.heads)
			if !ok {
				break yen
			}
			// The spur path leaves the root by a head no known path with
			// this root has, so the candidate is new.
			if !math.IsInf(d, 1) {
				s.known = append(s.known, s.appendPath(last[:i], last[i], dst, s.prefix[i]+d))
			}
		}
		if len(s.known) == s.nres || Stopped(done) {
			break
		}
		// Equal-weight candidates tie-break lexicographically: which path
		// becomes the k-th result must not depend on generation order.
		// Candidates are distinct sequences, so the minimum is unique.
		best := s.nres
		for i := best + 1; i < len(s.known); i++ {
			if c, b := s.known[i], s.known[best]; c.w < b.w || (c.w == b.w && lexLess(s.vertices(c), s.vertices(b))) {
				best = i
			}
		}
		s.known[s.nres], s.known[best] = s.known[best], s.known[s.nres]
		s.nres++
	}
	s.out = s.out[:0]
	for _, p := range s.known[:s.nres] {
		s.out = append(s.out, Path{Vertices: s.arena[p.off : p.off+p.n : p.off+p.n], Weight: p.w})
	}
	return s.out
}

func (s *KShortest) vertices(p arenaPath) []int { return s.arena[p.off : p.off+p.n] }

// appendPath writes root followed by the last search's src→dst path (read
// backwards off the predecessor labels) to the arena.
func (s *KShortest) appendPath(root []int, src, dst int, w float64) arenaPath {
	n := len(root) + 1
	for v := dst; v != src; v = int(s.lab[v].prev) {
		n++
	}
	p := arenaPath{off: len(s.arena), n: n, w: w}
	s.arena = append(slices.Grow(s.arena, n), root...)[:p.off+n]
	v := dst
	for i := p.off + n - 1; i >= p.off+len(root); i-- {
		s.arena[i] = v
		v = int(s.lab[v].prev)
	}
	return p
}

var kShortestPool = sync.Pool{New: func() any { return new(KShortest) }}

// KShortestPaths returns up to k loopless paths from src to dst in
// nondecreasing weight order: one Reset and one Paths on a pooled KShortest
// (see there for the weight contract and tie rules), copied out for the caller.
func KShortestPaths(g *Graph, src, dst, k int) []Path {
	s := kShortestPool.Get().(*KShortest)
	defer kShortestPool.Put(s)
	s.Reset(g)
	paths := slices.Clone(s.Paths(nil, src, dst, k))
	for i := range paths {
		paths[i].Vertices = slices.Clone(paths[i].Vertices)
	}
	s.g = nil // the pool must not pin the caller's graph
	return paths
}

// lexLess orders vertex sequences lexicographically, shorter prefix first.
func lexLess(a, b []int) bool { return slices.Compare(a, b) < 0 }
