package graphalg

import (
	"context"
	"math"
)

// Path is a shortest-path result: the vertex sequence and its total weight.
type Path struct {
	Vertices []int
	Weight   float64
}

type pqItem struct {
	v    int
	dist float64
}

// pq is a binary min-heap of (dist, v) pairs with hand-rolled sift
// operations: going through container/heap would box every pqItem into an
// interface value, and the push/pop pair sits on the hottest loop of every
// search in this package.
type pq []pqItem

// less orders by distance, then vertex id, so the settle order — and with
// it every tie-dependent choice downstream — is independent of arc
// insertion order.
func (h pq) less(i, j int) bool {
	return h[i].dist < h[j].dist || (h[i].dist == h[j].dist && h[i].v < h[j].v)
}

func (h *pq) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *pq) pop() pqItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.less(r, c) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// shortestPath returns the minimum-weight path from src to dst, or ok=false
// if dst is unreachable. Negative weights are not supported. A non-nil done
// channel is polled every stride heap pops; once closed the search stops
// and reports ok=false, and callers tell "unreachable" from "cancelled" by
// their context's Err.
func shortestPath(g *Graph, src, dst int, done <-chan struct{}) (Path, bool) {
	s := getScratch(g.N())
	defer putScratch(s)
	dijkstra(s, g, src, dst, done)
	if math.IsInf(s.dist[dst], 1) {
		return Path{}, false
	}
	return Path{Vertices: reconstruct(s.prev, src, dst), Weight: s.dist[dst]}, true
}

// AllDistances returns the shortest distance from src to every vertex
// (+Inf when unreachable).
func AllDistances(g *Graph, src int) []float64 {
	s := getScratch(g.N())
	defer putScratch(s)
	dijkstra(s, g, src, -1, nil)
	out := make([]float64, len(s.dist))
	copy(out, s.dist)
	return out
}

// DistanceTable returns the |srcs|×|dsts| matrix of shortest-path weights
// over g: +Inf where a destination is unreachable or either vertex is out
// of range, and never a nil row. Each distinct source row runs one Dijkstra
// that stops once every destination has settled; a source equal to the
// previous one copies its row. The settle order is fixed by (distance,
// vertex), so a stopped search is a prefix of the full one and every entry
// is bit-for-bit the label a full Dijkstra from that source assigns.
func DistanceTable(g *Graph, srcs, dsts []int) [][]float64 {
	n := g.N()
	s := getScratch(n)
	defer putScratch(s)
	out := make([][]float64, len(srcs))
	for i, src := range srcs {
		row := make([]float64, len(dsts))
		out[i] = row
		if i > 0 && srcs[i-1] == src {
			copy(row, out[i-1])
			continue
		}
		s.reset()
		for _, d := range dsts {
			if d >= 0 && d < n && !s.closed[d] {
				s.closed[d] = true
				s.left++
			}
		}
		if s.left > 0 {
			dijkstra(s, g, src, -1, nil)
		}
		for j, d := range dsts {
			row[j] = math.Inf(1)
			if d >= 0 && d < n {
				row[j] = s.dist[d]
			}
		}
	}
	return out
}

// dijkstra runs Dijkstra from src, writing distances and predecessors into
// s.dist and s.prev (s must be freshly reset). If dst >= 0 it stops when
// dst settles; with s.left > 0 it stops once the last destination marked
// in s.closed settles. A non-nil done channel is polled every stride pops;
// when closed the search stops and takes back every tentative label — the
// live entries still in the heap — so that a finite distance is always a
// final one: vertices that had not settled read +Inf, and callers see
// "unreachable".
func dijkstra(s *searchScratch, g *Graph, src, dst int, done <-chan struct{}) {
	n := g.N()
	if src < 0 || src >= n {
		return
	}
	dist, prev := s.dist, s.prev
	dist[src] = 0
	s.h.push(pqItem{v: src, dist: 0})
	pops := 0
	for len(s.h) > 0 {
		if pops++; pops&(stride-1) == 0 && Stopped(done) {
			for _, it := range s.h {
				if it.dist == dist[it.v] {
					dist[it.v], prev[it.v] = math.Inf(1), -1
				}
			}
			break
		}
		it := s.h.pop()
		if it.dist > dist[it.v] {
			continue
		}
		if it.v == dst {
			break
		}
		if s.closed[it.v] {
			s.closed[it.v] = false
			if s.left--; s.left == 0 {
				break
			}
		}
		for _, a := range g.Adj[it.v] {
			nd := it.dist + a.W
			if nd < dist[a.To] {
				dist[a.To] = nd
				prev[a.To] = it.v
				s.h.push(pqItem{v: a.To, dist: nd})
			} else if nd == dist[a.To] && a.W > 0 && prev[a.To] >= 0 && it.v < prev[a.To] {
				// Among equal-weight shortest paths keep the smallest
				// predecessor: the returned path is then a deterministic
				// function of the graph's arcs, not of their insertion
				// order. The a.W > 0 guard keeps the predecessor relation
				// acyclic (a prev cycle would need a zero-weight cycle).
				prev[a.To] = it.v
			}
		}
	}
}

func reconstruct(prev []int, src, dst int) []int {
	n := 1
	for v := dst; v != src && prev[v] != -1; v = prev[v] {
		n++
	}
	out := make([]int, n)
	v := dst
	for i := n - 1; i >= 0; i-- {
		out[i] = v
		v = prev[v]
	}
	return out
}

// BFSHopsCtx returns, for every vertex, the minimum number of arcs from src
// (-1 when unreachable). maxHops < 0 means unlimited; otherwise the search
// stops expanding past maxHops. A cancelled search returns the hop counts
// discovered so far; unvisited vertices stay -1.
func BFSHopsCtx(ctx context.Context, g *Graph, src int, maxHops int) []int {
	hops := make([]int, g.N())
	for i := range hops {
		hops[i] = -1
	}
	var hs HopSearch
	for _, v := range hs.Run(ctx.Done(), g, src, maxHops) {
		hops[v] = hs.Hops(v)
	}
	return hops
}

// HopSearch is a reusable breadth-first search over arc counts. Its hop
// counts are version-stamped, as KShortest's labels and the CH's workspaces
// are, so a run costs what it reaches rather than g.N(): a λ-neighbourhood
// scan on a large network touches a few dozen vertices.
//
// The zero value is ready to Run. Not safe for concurrent use.
type HopSearch struct {
	hops    []int32
	ver     []uint32
	cur     uint32
	reached []int // BFS order; also the queue
}

// Run searches from src and returns the vertices reached, src first, in
// breadth-first order (so by ascending hop count). maxHops < 0 means
// unlimited; otherwise the search stops expanding past maxHops. A non-nil
// done is polled every stride pops: a cancelled run returns what it reached
// so far. The slice is reused by the next Run; Hops answers for this run
// until then.
func (s *HopSearch) Run(done <-chan struct{}, g *Graph, src, maxHops int) []int {
	n := g.N()
	if len(s.ver) < n {
		s.hops, s.ver, s.cur = make([]int32, n), make([]uint32, n), 0
	}
	s.cur++
	if s.cur == 0 { // uint32 wrap: stale stamps could collide, clear
		clear(s.ver)
		s.cur = 1
	}
	s.reached = s.reached[:0]
	if src < 0 || src >= n {
		return s.reached
	}
	s.ver[src], s.hops[src] = s.cur, 0
	s.reached = append(s.reached, src)
	for head := 0; head < len(s.reached); head++ {
		if head&(stride-1) == stride-1 && Stopped(done) {
			break
		}
		v := s.reached[head]
		h := s.hops[v]
		if maxHops >= 0 && int(h) >= maxHops {
			continue
		}
		for _, a := range g.Adj[v] {
			if s.ver[a.To] != s.cur {
				s.ver[a.To], s.hops[a.To] = s.cur, h+1
				s.reached = append(s.reached, a.To)
			}
		}
	}
	return s.reached
}

// Hops returns v's arc count from the last run's source, -1 when that run
// did not reach v.
func (s *HopSearch) Hops(v int) int {
	if v < 0 || v >= len(s.ver) || s.ver[v] != s.cur {
		return -1
	}
	return int(s.hops[v])
}
