package roadnet

import "repro/internal/graphalg"

// AccelMode selects the shortest-path engine behind a Graph's distance
// and path queries.
type AccelMode int

const (
	// AccelCH (the default) answers point-to-point queries from a
	// contraction hierarchy, built once per network by the first Oracle
	// call, a query's or an explicit one; each query then explores only
	// the tiny upward search cones. Many-to-many distance tables never
	// use it (see graphalg.DistanceTable).
	AccelCH AccelMode = iota
	// AccelDijkstra answers every query with plain Dijkstra/A*. No
	// preprocessing; the always-correct fallback and behavioural
	// baseline. cmd/hris runs it: HRIS memoises its bridges per query
	// pair (Bridges), which leaves too few searches to repay a CH build.
	AccelDijkstra
)

func (m AccelMode) String() string {
	if m == AccelDijkstra {
		return "dijkstra"
	}
	return "ch"
}

// SetAccel chooses the acceleration mode. Call it before the first Oracle
// call, whether that is a query or an explicit build: the oracle is built
// exactly once, and a SetAccel after that build is a no-op. Not safe
// concurrently with Oracle or queries.
func (g *Graph) SetAccel(m AccelMode) { g.accel = m }

// Accel reports the configured acceleration mode.
func (g *Graph) Accel() AccelMode { return g.accel }

// Oracle returns the graph's distance oracle, building it on the first
// call. A caller may make that call ahead of any query to take the build
// off the query path; either way the build is guarded by sync.Once, so
// queries that arrive during it block until the single preprocessing pass
// finishes.
func (g *Graph) Oracle() graphalg.DistanceOracle {
	g.oracleOnce.Do(func() {
		if g.accel == AccelCH {
			ch := graphalg.BuildCH(g.vertexG)
			st := ch.Stats()
			g.oracleStats = &st
			g.oracle = ch
		} else {
			g.oracle = &graphalg.DijkstraOracle{G: g.vertexG, Heur: g.heurTo}
		}
		g.oracleUp.Store(true)
	})
	return g.oracle
}

// heurTo is the admissible A* heuristic toward dst: straight-line
// distance, which segment lengths can never beat.
func (g *Graph) heurTo(dst int) func(int) float64 {
	p := g.Vertices[dst].Pt
	return func(w int) float64 { return g.Vertices[w].Pt.Dist(p) }
}

// OracleStats reports the contraction-hierarchy preprocessing statistics.
// ok is false while no CH has been built (oracle not yet demanded, or
// running in AccelDijkstra mode); the call never forces a build.
func (g *Graph) OracleStats() (graphalg.CHStats, bool) {
	if !g.oracleUp.Load() || g.oracleStats == nil {
		return graphalg.CHStats{}, false
	}
	return *g.oracleStats, true
}
