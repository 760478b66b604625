package graphalg

import (
	"context"
	"math"
)

// DistanceOracle answers shortest-path queries over a fixed graph. The two
// implementations trade preprocessing for query speed:
//
//   - DijkstraOracle wraps the plain searches in this package. No
//     preprocessing, always available, and the behavioural baseline: its
//     answers define what "correct" means for the others.
//   - CH (contraction hierarchies, BuildCH) pays an ordering-and-shortcut
//     preprocessing pass once, after which point-to-point and batched
//     many-to-many queries explore only the tiny upward search spaces.
//
// All methods are safe for concurrent use. Distances are +Inf when
// unreachable; Table never returns nil rows. Ctx variants observe
// cancellation the same way the package-level searches do: a cancelled
// query reports unreachable (+Inf / ok=false) and callers disambiguate via
// ctx.Err().
type DistanceOracle interface {
	// Mode names the implementation ("dijkstra" or "ch") for logs/metrics.
	Mode() string

	// Dist returns the shortest-path weight from src to dst.
	Dist(src, dst int) float64
	DistCtx(ctx context.Context, src, dst int) float64

	// PathTo returns the minimum-weight vertex path from src to dst.
	// Equal-weight ties may resolve differently across implementations;
	// both always return a valid path of optimal weight.
	PathTo(src, dst int) (Path, bool)
	PathToCtx(ctx context.Context, src, dst int) (Path, bool)

	// Table returns the |srcs|×|dsts| matrix of shortest-path weights.
	// This is the batched entry point the matchers use: one call per
	// point pair instead of one full Dijkstra per candidate.
	Table(srcs, dsts []int) [][]float64
	TableCtx(ctx context.Context, srcs, dsts []int) [][]float64
}

// TableSession batches related Table calls so implementations can reuse
// per-destination search state across them (see NewTableSession). Answers
// are identical to the oracle's own Table. Not safe for concurrent use.
type TableSession interface {
	Table(srcs, dsts []int) [][]float64
	TableCtx(ctx context.Context, srcs, dsts []int) [][]float64
	Close()
}

// plainTableSession is the stateless fallback: every call delegates to the
// wrapped oracle.
type plainTableSession struct{ o DistanceOracle }

func (s plainTableSession) Table(srcs, dsts []int) [][]float64 { return s.o.Table(srcs, dsts) }
func (s plainTableSession) TableCtx(ctx context.Context, srcs, dsts []int) [][]float64 {
	return s.o.TableCtx(ctx, srcs, dsts)
}
func (s plainTableSession) Close() {}

// DijkstraOracle is the preprocessing-free DistanceOracle backed by the
// plain searches in this package. When Heur is non-nil, PathTo uses A*
// with Heur(dst) as the heuristic (the road network supplies straight-line
// distance), exactly matching the pre-oracle point-to-point behaviour;
// Dist and Table always use Dijkstra.
type DijkstraOracle struct {
	G *Graph
	// Heur, when non-nil, returns an admissible heuristic toward dst.
	Heur func(dst int) func(int) float64
}

func (o *DijkstraOracle) Mode() string { return "dijkstra" }

func (o *DijkstraOracle) Dist(src, dst int) float64 {
	return o.dist(src, dst, nil)
}

func (o *DijkstraOracle) DistCtx(ctx context.Context, src, dst int) float64 {
	return o.dist(src, dst, ctx.Done())
}

func (o *DijkstraOracle) dist(src, dst int, done <-chan struct{}) float64 {
	n := o.G.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return math.Inf(1)
	}
	s := getScratch(n)
	defer putScratch(s)
	dijkstra(s, o.G, src, dst, done)
	return s.dist[dst]
}

func (o *DijkstraOracle) PathTo(src, dst int) (Path, bool) {
	return o.pathTo(src, dst, nil)
}

func (o *DijkstraOracle) PathToCtx(ctx context.Context, src, dst int) (Path, bool) {
	return o.pathTo(src, dst, ctx.Done())
}

func (o *DijkstraOracle) pathTo(src, dst int, done <-chan struct{}) (Path, bool) {
	n := o.G.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Path{}, false
	}
	if o.Heur != nil {
		return aStar(o.G, src, dst, o.Heur(dst), done)
	}
	return shortestPath(o.G, src, dst, done)
}

func (o *DijkstraOracle) Table(srcs, dsts []int) [][]float64 {
	return o.table(srcs, dsts, nil)
}

func (o *DijkstraOracle) TableCtx(ctx context.Context, srcs, dsts []int) [][]float64 {
	return o.table(srcs, dsts, ctx.Done())
}

func (o *DijkstraOracle) table(srcs, dsts []int, done <-chan struct{}) [][]float64 {
	n := o.G.N()
	out := make([][]float64, len(srcs))
	s := getScratch(n)
	defer putScratch(s)
	for i, src := range srcs {
		row := make([]float64, len(dsts))
		out[i] = row
		if src < 0 || src >= n {
			for j := range row {
				row[j] = math.Inf(1)
			}
			continue
		}
		// One full Dijkstra per distinct source row; duplicate sources
		// reuse the previous row's distances.
		if i > 0 && srcs[i-1] == src {
			copy(row, out[i-1])
			continue
		}
		s.reset()
		dijkstra(s, o.G, src, -1, done)
		for j, dst := range dsts {
			if dst < 0 || dst >= n {
				row[j] = math.Inf(1)
				continue
			}
			row[j] = s.dist[dst]
		}
	}
	return out
}
