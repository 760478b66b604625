package graphalg

import (
	"context"
	"math"
	"sync"
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

// dijkstra runs Dijkstra from src, writing distances and predecessors into
// s.dist and s.prev (s must be freshly reset). If dst >= 0 it stops when
// dst settles. A non-nil done channel is polled every stride pops; when
// closed the search stops and takes back every tentative label — the live
// entries still in the heap — so that a finite distance is always a final
// one: vertices that had not settled read +Inf, and callers see
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
	return bfsHopsInto(g, src, maxHops, nil, ctx.Done())
}

// BFSHopsIntoCtx is BFSHopsCtx writing the hop counts into hops (grown when
// too small) and drawing its queue from a pool, so steady-state
// λ-neighborhood scans allocate nothing. Returns hops resliced to g.N().
func BFSHopsIntoCtx(ctx context.Context, g *Graph, src, maxHops int, hops []int) []int {
	return bfsHopsInto(g, src, maxHops, hops, ctx.Done())
}

var bfsQueuePool = sync.Pool{New: func() any { return new([]int) }}

func bfsHopsInto(g *Graph, src, maxHops int, hops []int, done <-chan struct{}) []int {
	n := g.N()
	if cap(hops) < n {
		hops = make([]int, n)
	}
	hops = hops[:n]
	for i := range hops {
		hops[i] = -1
	}
	if src < 0 || src >= n {
		return hops
	}
	qp := bfsQueuePool.Get().(*[]int)
	queue := (*qp)[:0]
	hops[src] = 0
	queue = append(queue, src)
	pops := 0
	for head := 0; head < len(queue); head++ {
		if pops++; pops&(stride-1) == 0 && Stopped(done) {
			break
		}
		v := queue[head]
		if maxHops >= 0 && hops[v] >= maxHops {
			continue
		}
		for _, a := range g.Adj[v] {
			if hops[a.To] == -1 {
				hops[a.To] = hops[v] + 1
				queue = append(queue, a.To)
			}
		}
	}
	*qp = queue[:0]
	bfsQueuePool.Put(qp)
	return hops
}
