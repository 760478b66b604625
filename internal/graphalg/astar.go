package graphalg

// aStar returns the minimum-weight path from src to dst guided by the
// admissible heuristic h (a lower bound on the remaining distance from
// each vertex to dst; h(dst) must be 0). With h ≡ 0 it degenerates to
// Dijkstra. The road network uses straight-line distance as h, which cuts
// the explored vertex set substantially for the point-to-point queries
// map-matching issues in bulk. A non-nil done channel is polled every
// stride heap pops; once closed the search stops and reports ok=false, and
// callers tell "unreachable" from "cancelled" by their context's Err.
func aStar(g *Graph, src, dst int, h func(int) float64, done <-chan struct{}) (Path, bool) {
	n := g.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Path{}, false
	}
	s := getScratch(n)
	defer putScratch(s)
	dist, prev, closed := s.dist, s.prev, s.closed
	dist[src] = 0
	s.h.push(pqItem{v: src, dist: h(src)})
	pops := 0
	for len(s.h) > 0 {
		if pops++; pops&(stride-1) == 0 && Stopped(done) {
			return Path{}, false
		}
		it := s.h.pop()
		v := it.v
		if closed[v] {
			continue
		}
		closed[v] = true
		if v == dst {
			return Path{Vertices: reconstruct(prev, src, dst), Weight: dist[dst]}, true
		}
		for _, a := range g.Adj[v] {
			if closed[a.To] {
				continue
			}
			if nd := dist[v] + a.W; nd < dist[a.To] {
				dist[a.To] = nd
				prev[a.To] = v
				s.h.push(pqItem{v: a.To, dist: nd + h(a.To)})
			}
		}
	}
	return Path{}, false
}
