package graphalg

import (
	"context"
	"math"
)

// DistanceOracle answers point-to-point shortest-path queries over a fixed
// graph. The two implementations trade preprocessing for query speed:
//
//   - DijkstraOracle wraps the plain searches in this package. No
//     preprocessing, always available, and the behavioural baseline: its
//     answers define what "correct" means for the other.
//   - CH (contraction hierarchies, BuildCH) pays an ordering-and-shortcut
//     preprocessing pass once, after which a query explores only the two
//     tiny upward search spaces.
//
// Many-to-many tables are not an oracle question: DistanceTable answers
// them with one early-stopping Dijkstra per source row.
//
// All methods are safe for concurrent use. Distances are +Inf when
// unreachable. PathToCtx observes cancellation the same way the
// package-level searches do: a cancelled query reports ok=false and
// callers disambiguate via ctx.Err().
type DistanceOracle interface {
	// Dist returns the shortest-path weight from src to dst.
	Dist(src, dst int) float64

	// PathToCtx returns the minimum-weight vertex path from src to dst.
	// Equal-weight ties may resolve differently across implementations;
	// both always return a valid path of optimal weight.
	PathToCtx(ctx context.Context, src, dst int) (Path, bool)
}

// DijkstraOracle is the preprocessing-free DistanceOracle backed by the
// plain searches in this package. When Heur is non-nil, PathToCtx uses A*
// with Heur(dst) as the heuristic (the road network supplies straight-line
// distance), exactly matching the pre-oracle point-to-point behaviour;
// Dist always uses Dijkstra.
type DijkstraOracle struct {
	G *Graph
	// Heur, when non-nil, returns an admissible heuristic toward dst.
	Heur func(dst int) func(int) float64
}

func (o *DijkstraOracle) Dist(src, dst int) float64 {
	n := o.G.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return math.Inf(1)
	}
	s := getScratch(n)
	defer putScratch(s)
	dijkstra(s, o.G, src, dst, nil)
	return s.dist[dst]
}

func (o *DijkstraOracle) PathToCtx(ctx context.Context, src, dst int) (Path, bool) {
	n := o.G.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Path{}, false
	}
	if o.Heur != nil {
		return aStar(o.G, src, dst, o.Heur(dst), ctx.Done())
	}
	return shortestPath(o.G, src, dst, ctx.Done())
}
