package graphalg

import (
	"math"
	"slices"
	"sort"
)

// This file keeps Yen's algorithm as it stood before the goal-directed
// solver (kshortest.go) replaced it — kShortestPaths, its ban-aware dijkstra
// and their helpers, copied verbatim under an "oracle" prefix — as the
// reference TestKShortestOracleEquivalence compares the solver against.
// Every spur search is a plain Dijkstra over freshly reset O(n) arrays that
// learns where the destination is only by settling it.

func oracleKShortestPaths(g *Graph, src, dst, k int, done <-chan struct{}) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := oracleShortestPath(g, src, dst, done)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path

	s := getScratch(g.N())
	defer putScratch(s)
	bannedVertex := make([]bool, g.N())
	var bannedHeads []int

	for len(paths) < k {
		last := paths[len(paths)-1].Vertices
		// Each vertex of the previous path (except the last) is a spur node.
		for i := 0; i < len(last)-1; i++ {
			if Stopped(done) {
				return paths
			}
			spur := last[i]
			rootPath := last[:i+1]
			rootWeight := oraclePathWeight(g, rootPath)

			// Ban arcs that would recreate an already-found path with the
			// same root — they all leave the spur node, so their heads
			// suffice — and ban root vertices to keep paths loopless.
			bannedHeads = bannedHeads[:0]
			for _, p := range paths {
				if len(p.Vertices) > i && oracleEqualPrefix(p.Vertices, rootPath) {
					bannedHeads = append(bannedHeads, p.Vertices[i+1])
				}
			}
			for _, c := range candidates {
				if len(c.Vertices) > i && oracleEqualPrefix(c.Vertices, rootPath) {
					bannedHeads = append(bannedHeads, c.Vertices[i+1])
				}
			}
			for _, v := range rootPath[:len(rootPath)-1] {
				bannedVertex[v] = true
			}

			s.reset()
			oracleDijkstra(s, g, spur, dst, bannedVertex, bannedHeads, done)
			for _, v := range rootPath[:len(rootPath)-1] {
				bannedVertex[v] = false
			}
			if math.IsInf(s.dist[dst], 1) {
				continue
			}
			spurPath := reconstruct(s.prev, spur, dst)
			dist := s.dist
			total := append(append([]int(nil), rootPath[:len(rootPath)-1]...), spurPath...)
			cand := Path{Vertices: total, Weight: rootWeight + dist[dst]}
			if !oracleContainsPath(paths, cand) && !oracleContainsPath(candidates, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Equal-weight candidates tie-break lexicographically on their
		// vertex sequence: which path becomes the k-th result must not
		// depend on candidate generation order (determinism guarantee).
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].Weight != candidates[b].Weight {
				return candidates[a].Weight < candidates[b].Weight
			}
			return lexLess(candidates[a].Vertices, candidates[b].Vertices)
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func oracleShortestPath(g *Graph, src, dst int, done <-chan struct{}) (Path, bool) {
	s := getScratch(g.N())
	defer putScratch(s)
	oracleDijkstra(s, g, src, dst, nil, nil, done)
	if math.IsInf(s.dist[dst], 1) {
		return Path{}, false
	}
	return Path{Vertices: reconstruct(s.prev, src, dst), Weight: s.dist[dst]}, true
}

// oracleDijkstra is dijkstra with its two ban parameters: banned vertices,
// and arcs from src to a banned head, are skipped.
func oracleDijkstra(s *searchScratch, g *Graph, src, dst int, bannedVertex []bool, bannedHeads []int, done <-chan struct{}) {
	n := g.N()
	if src < 0 || src >= n || (bannedVertex != nil && bannedVertex[src]) {
		return
	}
	dist, prev := s.dist, s.prev
	dist[src] = 0
	s.h.push(pqItem{v: src, dist: 0})
	pops := 0
	for len(s.h) > 0 {
		if pops++; pops&(stride-1) == 0 && Stopped(done) {
			break
		}
		it := s.h.pop()
		if it.dist > dist[it.v] {
			continue
		}
		if it.v == dst {
			break
		}
		heads := bannedHeads
		if it.v != src {
			heads = nil
		}
		for _, a := range g.Adj[it.v] {
			if bannedVertex != nil && bannedVertex[a.To] {
				continue
			}
			if heads != nil && slices.Contains(heads, a.To) {
				continue
			}
			nd := it.dist + a.W
			if nd < dist[a.To] {
				dist[a.To] = nd
				prev[a.To] = it.v
				s.h.push(pqItem{v: a.To, dist: nd})
			} else if nd == dist[a.To] && a.W > 0 && prev[a.To] >= 0 && it.v < prev[a.To] {
				prev[a.To] = it.v
			}
		}
	}
}

func oraclePathWeight(g *Graph, vs []int) float64 {
	var w float64
	for i := 1; i < len(vs); i++ {
		best := math.Inf(1)
		for _, a := range g.Adj[vs[i-1]] {
			if a.To == vs[i] && a.W < best {
				best = a.W
			}
		}
		w += best
	}
	return w
}

func oracleEqualPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func oracleContainsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if slices.Equal(p.Vertices, q.Vertices) {
			return true
		}
	}
	return false
}
