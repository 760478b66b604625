// Package graphalg provides the weighted-digraph algorithms the HRIS
// reproduction needs in two places: on the physical road network
// (shortest paths for map-matching and route bridging) and on the
// conceptual traverse graph of the TGI algorithm (K-shortest paths,
// strong-connectivity tests for graph augmentation). Keeping them generic
// over a plain adjacency list lets both graphs share one implementation.
package graphalg

// Arc is a weighted directed edge to vertex To.
type Arc struct {
	To int
	W  float64
}

// Graph is a weighted digraph in adjacency-list form: Adj[v] lists the arcs
// leaving v. Vertices are the indices 0..len(Adj)-1.
type Graph struct {
	Adj [][]Arc
}

// NewGraph returns a graph with n isolated vertices.
func NewGraph(n int) *Graph {
	return &Graph{Adj: make([][]Arc, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.Adj) }

// Reset reshapes the graph to n isolated vertices while keeping the
// adjacency rows' backing arrays, so a pooled Graph rebuilt every query
// (TGI's traverse graph) stops allocating once its rows have grown to the
// working-set size.
func (g *Graph) Reset(n int) {
	if cap(g.Adj) < n {
		adj := make([][]Arc, n)
		copy(adj, g.Adj[:cap(g.Adj)])
		g.Adj = adj
	} else {
		g.Adj = g.Adj[:n]
	}
	for i := range g.Adj {
		g.Adj[i] = g.Adj[i][:0]
	}
}

// AddArc adds a directed arc from u to v with weight w.
func (g *Graph) AddArc(u, v int, w float64) {
	g.Adj[u] = append(g.Adj[u], Arc{To: v, W: w})
}

// HasArc reports whether an arc u->v exists.
func (g *Graph) HasArc(u, v int) bool {
	for _, a := range g.Adj[u] {
		if a.To == v {
			return true
		}
	}
	return false
}

// RemoveArc deletes every arc u->v. It reports whether any was removed.
func (g *Graph) RemoveArc(u, v int) bool {
	removed := false
	out := g.Adj[u][:0]
	for _, a := range g.Adj[u] {
		if a.To == v {
			removed = true
			continue
		}
		out = append(out, a)
	}
	g.Adj[u] = out
	return removed
}

// ArcCount returns the total number of arcs.
func (g *Graph) ArcCount() int {
	n := 0
	for _, arcs := range g.Adj {
		n += len(arcs)
	}
	return n
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.N())
	for u, arcs := range g.Adj {
		c.Adj[u] = append([]Arc(nil), arcs...)
	}
	return c
}
