package graphalg

import (
	"context"
	"math"
	"sort"
	"sync"
)

// yenScratch pools the spur-search ban structures of Yen's algorithm.
type yenScratch struct {
	bannedVertex []bool
	bannedHeads  []int
}

var yenPool = sync.Pool{New: func() any { return new(yenScratch) }}

func getYenScratch(n int) *yenScratch {
	y := yenPool.Get().(*yenScratch)
	if cap(y.bannedVertex) < n {
		y.bannedVertex = make([]bool, n)
	}
	y.bannedVertex = y.bannedVertex[:n]
	// The algorithm unbans everything it bans, but reset defensively: a
	// stale entry would silently prune valid spur paths.
	for i := range y.bannedVertex {
		y.bannedVertex[i] = false
	}
	return y
}

// KShortestPaths returns up to k loopless paths from src to dst in
// nondecreasing weight order, using Yen's algorithm [Yen 1971] with
// Dijkstra as the underlying single-pair solver — the K-shortest-path
// subroutine of the TGI algorithm (Algorithm 1, line 13).
func KShortestPaths(g *Graph, src, dst, k int) []Path {
	return kShortestPaths(g, src, dst, k, nil)
}

// KShortestPathsCtx is KShortestPaths with a cancellation checkpoint at
// every spur iteration (and inside each spur's Dijkstra). When ctx is
// cancelled mid-search it returns the complete paths found so far, which
// remain a valid nondecreasing-weight prefix of the full answer.
func KShortestPathsCtx(ctx context.Context, g *Graph, src, dst, k int) []Path {
	return kShortestPaths(g, src, dst, k, ctx.Done())
}

func kShortestPaths(g *Graph, src, dst, k int, done <-chan struct{}) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := shortestPath(g, src, dst, done)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path

	// One scratch, one ban buffer, and one ban list serve every spur
	// search; they are reset in place between iterations, and the ban
	// structures themselves are pooled across Yen invocations (K-GRI runs
	// one per source×destination candidate pair of every query pair).
	s := getScratch(g.N())
	defer putScratch(s)
	y := getYenScratch(g.N())
	defer yenPool.Put(y)
	bannedVertex := y.bannedVertex

	for len(paths) < k {
		last := paths[len(paths)-1].Vertices
		// Each vertex of the previous path (except the last) is a spur node.
		for i := 0; i < len(last)-1; i++ {
			if Stopped(done) {
				return paths
			}
			spur := last[i]
			rootPath := last[:i+1]
			rootWeight := pathWeight(g, rootPath)

			// Ban arcs that would recreate an already-found path with the
			// same root — they all leave the spur node, so their heads
			// suffice — and ban root vertices to keep paths loopless.
			y.bannedHeads = y.bannedHeads[:0]
			for _, p := range paths {
				if len(p.Vertices) > i && equalPrefix(p.Vertices, rootPath) {
					y.bannedHeads = append(y.bannedHeads, p.Vertices[i+1])
				}
			}
			for _, c := range candidates {
				if len(c.Vertices) > i && equalPrefix(c.Vertices, rootPath) {
					y.bannedHeads = append(y.bannedHeads, c.Vertices[i+1])
				}
			}
			for _, v := range rootPath[:len(rootPath)-1] {
				bannedVertex[v] = true
			}

			s.reset()
			dijkstra(s, g, spur, dst, bannedVertex, y.bannedHeads, done)
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
			if !containsPath(paths, cand) && !containsPath(candidates, cand) {
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

// lexLess orders vertex sequences lexicographically, shorter prefix first.
func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func pathWeight(g *Graph, vs []int) float64 {
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

func equalPrefix(p, prefix []int) bool {
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

func containsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if equalPath(p.Vertices, q.Vertices) {
			return true
		}
	}
	return false
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
