package roadnet

import (
	"context"

	"repro/internal/graphalg"
)

// Context-aware forms of the network operations whose cost is unbounded in
// the worst case (shortest paths, λ-neighborhoods, Yen's K-shortest
// routes). Each delegates to the graphalg checkpointed search. The path and
// neighborhood bodies live here once; their plain namesakes in roadnet.go
// call them with context.Background(), whose Done channel is nil — the
// checkpoints are then a nil comparison, no channel polls, no clock reads.
// A cancelled search reports "not found" / partial coverage — the caller
// distinguishes cancellation from genuine unreachability via ctx.Err().

// VertexDistancesCtx is VertexDistances with cancellation checkpoints;
// vertices not settled before cancellation stay +Inf.
func (g *Graph) VertexDistancesCtx(ctx context.Context, src VertexID) []float64 {
	return graphalg.AllDistancesCtx(ctx, g.vertexG, src)
}

// VertexPathCtx is VertexPath with cancellation checkpoints in the
// oracle's search loops.
func (g *Graph) VertexPathCtx(ctx context.Context, u, v VertexID) ([]VertexID, float64, bool) {
	if u < 0 || u >= len(g.Vertices) || v < 0 || v >= len(g.Vertices) {
		return nil, 0, false
	}
	p, ok := g.Oracle().PathToCtx(ctx, u, v)
	if !ok {
		return nil, 0, false
	}
	return p.Vertices, p.Weight, true
}

// EdgePathBetweenVerticesCtx is EdgePathBetweenVertices with cancellation
// checkpoints.
func (g *Graph) EdgePathBetweenVerticesCtx(ctx context.Context, u, v VertexID) (Route, float64, bool) {
	vs, w, ok := g.VertexPathCtx(ctx, u, v)
	if !ok {
		return nil, 0, false
	}
	route := make(Route, 0, len(vs)-1)
	for i := 1; i < len(vs); i++ {
		e := g.edgeFor(vs[i-1], vs[i])
		if e == NoEdge {
			return nil, 0, false
		}
		route = append(route, e)
	}
	return route, w, true
}

// PathBetweenLocationsCtx is PathBetweenLocations with cancellation
// checkpoints.
func (g *Graph) PathBetweenLocationsCtx(ctx context.Context, a, b Location) (Route, float64, bool) {
	if a.Edge == b.Edge && b.Offset >= a.Offset {
		return Route{a.Edge}, b.Offset - a.Offset, true
	}
	sa, sb := g.Seg(a.Edge), g.Seg(b.Edge)
	if sa.To == sb.From { // b's segment follows a's: nothing to search
		return Route{a.Edge, b.Edge}.Dedup(), sa.Length - a.Offset + b.Offset, true
	}
	mid, w, ok := g.EdgePathBetweenVerticesCtx(ctx, sa.To, sb.From)
	if !ok {
		return nil, 0, false
	}
	route := append(Route{a.Edge}, mid...)
	route = append(route, b.Edge)
	return route.Dedup(), sa.Length - a.Offset + w + b.Offset, true
}

// EdgeHopsCtx is EdgeHops with cancellation checkpoints; segments not
// reached before cancellation stay -1, so a cancelled λ-neighborhood is a
// subset of the full one.
func (g *Graph) EdgeHopsCtx(ctx context.Context, r EdgeID, maxHops int) []int {
	return graphalg.BFSHopsCtx(ctx, g.edgeG, r, maxHops)
}

// EdgeHopsIntoCtx is EdgeHopsCtx writing into hops (grown when too small),
// so per-query λ-neighborhood scans can reuse one buffer.
func (g *Graph) EdgeHopsIntoCtx(ctx context.Context, r EdgeID, maxHops int, hops []int) []int {
	return graphalg.BFSHopsIntoCtx(ctx, g.edgeG, r, maxHops, hops)
}

// NeighborhoodCtx is Neighborhood (Definition 8) with cancellation
// checkpoints in the underlying hop BFS.
func (g *Graph) NeighborhoodCtx(ctx context.Context, r EdgeID, lambda int) map[EdgeID]int {
	hops := g.EdgeHopsCtx(ctx, r, lambda-1)
	out := make(map[EdgeID]int)
	for s, h := range hops {
		if s != r && h > 0 && h < lambda {
			out[EdgeID(s)] = h
		}
	}
	return out
}

// KShortestRoutes returns up to k shortest routes from vertex u to vertex
// v in nondecreasing length order, using Yen's algorithm on the vertex
// graph. Vertex paths that traverse a vertex pair with no resolvable
// segment are dropped.
func (g *Graph) KShortestRoutes(u, v VertexID, k int) []Route {
	return g.kShortestRoutes(graphalg.KShortestPaths(g.vertexG, u, v, k))
}

// KShortestRoutesCtx is KShortestRoutes with cancellation checkpoints at
// every Yen spur iteration; a cancelled search returns the routes found so
// far (a valid prefix of the full answer).
func (g *Graph) KShortestRoutesCtx(ctx context.Context, u, v VertexID, k int) []Route {
	return g.kShortestRoutes(graphalg.KShortestPathsCtx(ctx, g.vertexG, u, v, k))
}

func (g *Graph) kShortestRoutes(paths []graphalg.Path) []Route {
	out := make([]Route, 0, len(paths))
	for _, p := range paths {
		route := make(Route, 0, len(p.Vertices)-1)
		ok := true
		for i := 1; i < len(p.Vertices); i++ {
			e := g.edgeFor(p.Vertices[i-1], p.Vertices[i])
			if e == NoEdge {
				ok = false
				break
			}
			route = append(route, e)
		}
		if ok && len(route) > 0 {
			out = append(out, route)
		}
	}
	return out
}
