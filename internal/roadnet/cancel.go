package roadnet

import (
	"context"

	"repro/internal/graphalg"
)

// Context-aware forms of the network operations whose cost is unbounded in
// the worst case (shortest paths, hop searches). Each delegates to the
// graphalg checkpointed search. The bodies live here once; the plain
// namesakes in roadnet.go call them with context.Background(), whose Done
// channel is nil — the checkpoints are then a nil comparison, no channel
// polls, no clock reads. A cancelled search reports "not found" / partial
// coverage — the caller distinguishes cancellation from genuine
// unreachability via ctx.Err().

// VertexPathCtx returns the shortest vertex path and distance from u to v,
// with cancellation checkpoints in the oracle's search loops.
// Point-to-point queries go through the distance oracle: a bidirectional
// contraction-hierarchy search by default, or A* with the straight-line
// lower bound in AccelDijkstra mode (both exact).
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
	route, ok := g.appendEdges(make(Route, 0, len(vs)-1), vs)
	if !ok {
		return nil, 0, false
	}
	return route, w, true
}

// appendEdges appends to dst the segments joining the consecutive vertices
// of the path vs, and fails (dst unchanged) when two are not joined by one.
func (g *Graph) appendEdges(dst Route, vs []VertexID) (Route, bool) {
	n := len(dst)
	for i := 1; i < len(vs); i++ {
		e := g.edgeFor(vs[i-1], vs[i])
		if e == NoEdge {
			return dst[:n], false
		}
		dst = append(dst, e)
	}
	return dst, true
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

// EdgeHopsCtx returns h(r, s) for every segment s: the minimum number of
// segment transitions for an object moving from r (h(r,r)=0, an immediately
// following segment has h=1; -1 when unreachable). maxHops < 0 means
// unlimited. Segments not reached before cancellation stay -1, so a
// cancelled λ-neighborhood is a subset of the full one.
func (g *Graph) EdgeHopsCtx(ctx context.Context, r EdgeID, maxHops int) []int {
	return graphalg.BFSHopsCtx(ctx, g.edgeG, r, maxHops)
}

// EdgeHopsFrom runs hs from segment r over the segment-adjacency graph —
// the search EdgeHopsCtx does, stamped instead of filled, so it costs what
// it reaches — and returns the segments reached, r first, by ascending hop
// count; hs.Hops(s) is h(r, s) until hs runs again. A cancelled search
// returns the segments reached so far, a subset of the full answer.
func (g *Graph) EdgeHopsFrom(ctx context.Context, hs *graphalg.HopSearch, r EdgeID, maxHops int) []EdgeID {
	return hs.Run(ctx.Done(), g.edgeG, r, maxHops)
}
