// Package roadnet models the directed road network of Definitions 2–5:
// road segments (directed edges with polyline shapes, lengths and speed
// constraints), the road graph, routes (connected segment sequences), and
// candidate-edge search over an internal/grid cell grid of the segments'
// bounding boxes, answered in (distance, EdgeID) order whatever the index
// visits first. It also provides the network operations the rest of the
// system relies on: shortest paths between network locations, edge-level
// hop distances (from which TGI reads Definition 8's λ-neighborhoods), and
// shortest-path bridging of edge sequences into valid routes.
package roadnet

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/grid"
)

// VertexID identifies an intersection or segment terminal point.
type VertexID = int

// EdgeID identifies a directed road segment.
type EdgeID = int

// NoEdge is the sentinel for "no segment".
const NoEdge EdgeID = -1

// Vertex is a road-network node (Definition 3).
type Vertex struct {
	ID VertexID
	Pt geo.Point
}

// Segment is a directed road segment (Definition 2): terminal points
// r.s = From and r.e = To, a polyline shape, a length, and a speed
// constraint in meters per second.
type Segment struct {
	ID     EdgeID
	From   VertexID
	To     VertexID
	Shape  geo.Polyline
	Length float64
	Speed  float64
}

// Graph is a road network (Definition 3): a directed graph whose edges are
// road segments. Build one with a Builder; a built Graph is immutable and
// safe for concurrent readers.
type Graph struct {
	Vertices []Vertex
	Segments []Segment

	out        [][]EdgeID // out[v] = segments leaving vertex v
	maxSpeed   float64
	segHeading []float64 // SegHeading, computed once in Build
	bbox       geo.BBox  // BBox, computed once in Build
	edgeIndex  *grid.Grid[EdgeID]
	vertexG    *graphalg.Graph // vertex graph weighted by segment length
	edgeG      *graphalg.Graph // edge adjacency graph (hop weight 1)

	// Shortest-path oracle (see accel.go): built by the first Oracle call,
	// a query's or an explicit one, so graphs that never run distance
	// queries pay nothing.
	accel       AccelMode
	oracleOnce  sync.Once
	oracle      graphalg.DistanceOracle
	oracleStats *graphalg.CHStats
	oracleUp    atomic.Bool
}

// Builder accumulates vertices and segments, then finalizes them into a
// Graph with all derived indexes.
type Builder struct {
	vertices []Vertex
	segments []Segment
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddVertex adds an intersection at p and returns its id.
func (b *Builder) AddVertex(p geo.Point) VertexID {
	id := len(b.vertices)
	b.vertices = append(b.vertices, Vertex{ID: id, Pt: p})
	return id
}

// AddEdge adds a directed segment from u to v with the given speed limit
// (m/s). If shape is nil the segment is a straight line between the vertex
// points; otherwise shape must start at u's point and end at v's point.
func (b *Builder) AddEdge(u, v VertexID, speed float64, shape geo.Polyline) EdgeID {
	if shape == nil {
		shape = geo.Polyline{b.vertices[u].Pt, b.vertices[v].Pt}
	}
	id := len(b.segments)
	b.segments = append(b.segments, Segment{
		ID: id, From: u, To: v, Shape: shape, Length: shape.Length(), Speed: speed,
	})
	return id
}

// AddBidirectional adds both directions between u and v, sharing the shape
// (reversed for the v->u direction), and returns the two edge ids.
func (b *Builder) AddBidirectional(u, v VertexID, speed float64, shape geo.Polyline) (EdgeID, EdgeID) {
	e1 := b.AddEdge(u, v, speed, shape)
	var back geo.Polyline
	if shape != nil {
		back = shape.Reverse()
	}
	e2 := b.AddEdge(v, u, speed, back)
	return e1, e2
}

// VertexPoint returns the location of an already-added vertex, for
// constructing shapes that must start and end on the vertices.
func (b *Builder) VertexPoint(v VertexID) geo.Point { return b.vertices[v].Pt }

// Build finalizes the graph: adjacency lists, the bounding box, the segment
// grid, the vertex-level weighted graph, and the edge-level hop graph.
func (b *Builder) Build() *Graph {
	g := &Graph{
		Vertices:   b.vertices,
		Segments:   b.segments,
		out:        make([][]EdgeID, len(b.vertices)),
		segHeading: make([]float64, len(b.segments)),
		bbox:       geo.EmptyBBox(),
	}
	for i := range g.Vertices {
		g.bbox = g.bbox.ExtendPoint(g.Vertices[i].Pt)
	}
	g.vertexG = graphalg.NewGraph(len(g.Vertices))
	for i := range g.Segments {
		s := &g.Segments[i]
		g.out[s.From] = append(g.out[s.From], s.ID)
		if s.Speed > g.maxSpeed {
			g.maxSpeed = s.Speed
		}
		g.segHeading[i] = s.Shape[0].Heading(s.Shape[len(s.Shape)-1])
		g.vertexG.AddArc(s.From, s.To, s.Length)
	}
	g.edgeIndex = grid.New(g.bbox, func(yield func(geo.BBox, EdgeID)) {
		for i := range g.Segments {
			yield(g.Segments[i].Shape.BBox(), g.Segments[i].ID)
		}
	})
	g.edgeG = graphalg.NewGraph(len(g.Segments))
	for i := range g.Segments {
		s := &g.Segments[i]
		for _, next := range g.out[s.To] {
			g.edgeG.AddArc(s.ID, next, 1)
		}
	}
	return g
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Vertices) }

// NumSegments returns the segment count.
func (g *Graph) NumSegments() int { return len(g.Segments) }

// MaxSpeed returns V_max, the maximum speed constraint over all segments,
// used by the temporal feasibility condition of Definition 6.
func (g *Graph) MaxSpeed() float64 { return g.maxSpeed }

// Out returns the segments leaving vertex v.
func (g *Graph) Out(v VertexID) []EdgeID { return g.out[v] }

// Seg returns the segment with the given id.
func (g *Graph) Seg(id EdgeID) *Segment { return &g.Segments[id] }

// SegHeading returns segment id's overall direction of travel in radians:
// the heading from its first to its last shape point.
func (g *Graph) SegHeading(id EdgeID) float64 { return g.segHeading[id] }

// BBox returns the bounding box of the network's vertices.
func (g *Graph) BBox() geo.BBox { return g.bbox }

// Candidate is a road segment near a GPS point (Definition 5), together
// with the projection of the point onto the segment.
type Candidate struct {
	Edge   EdgeID
	Proj   geo.Point // closest point on the segment shape
	Dist   float64   // dist(p, r)
	Offset float64   // arc length from the segment start to Proj
}

// CandidateEdges returns the segments whose distance to p is at most eps
// (Definition 5), sorted by (distance, EdgeID). That order is total — the
// two directions of one road are always equidistant and break by id — so
// the index the edges are found through cannot influence it.
func (g *Graph) CandidateEdges(p geo.Point, eps float64) []Candidate {
	var out []Candidate
	g.edgeIndex.Visit(geo.BBoxAround(p, eps), func(e EdgeID) bool {
		if c := g.CandidateOn(p, e); c.Dist <= eps {
			out = append(out, c)
		}
		return true
	})
	slices.SortFunc(out, func(a, b Candidate) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Edge, b.Edge)
	})
	return out
}

// CandidateOn projects p onto segment e: the candidate CandidateEdges
// reports for e, for callers that already know p's candidate edges.
func (g *Graph) CandidateOn(p geo.Point, e EdgeID) Candidate {
	proj, _, off := g.Seg(e).Shape.Project(p)
	return Candidate{Edge: e, Proj: proj, Dist: p.Dist(proj), Offset: off}
}

// NearestCandidates returns the k segments closest to p regardless of
// distance, sorted by distance. It widens a candidate search geometrically,
// so it remains cheap when a nearby hit exists.
func (g *Graph) NearestCandidates(p geo.Point, k int) []Candidate {
	if k <= 0 {
		return nil
	}
	eps := 50.0
	for {
		cands := g.CandidateEdges(p, eps)
		if len(cands) >= k || len(cands) == g.NumSegments() {
			if len(cands) > k {
				cands = cands[:k]
			}
			return cands
		}
		if eps > g.bbox.Margin()+1 {
			return cands
		}
		eps *= 2
	}
}

// Location is a point on the network: a segment plus an arc-length offset.
type Location struct {
	Edge   EdgeID
	Offset float64
}

// LocationOf projects p onto the nearest segment and returns the resulting
// network location (ok=false on an empty network).
func (g *Graph) LocationOf(p geo.Point) (Location, bool) {
	cands := g.NearestCandidates(p, 1)
	if len(cands) == 0 {
		return Location{}, false
	}
	return Location{Edge: cands[0].Edge, Offset: cands[0].Offset}, true
}

// Point returns the planar point of a network location.
func (g *Graph) Point(l Location) geo.Point {
	return g.Seg(l.Edge).Shape.At(l.Offset)
}

// edgeFor returns the shortest segment from u to v — the lowest id among
// equals — or NoEdge: a scan of u's few outgoing segments.
func (g *Graph) edgeFor(u, v VertexID) EdgeID {
	best := NoEdge
	for _, e := range g.out[u] {
		if s := g.Seg(e); s.To == v && (best == NoEdge || s.Length < g.Seg(best).Length) {
			best = e
		}
	}
	return best
}

// EdgePathBetweenVertices returns the shortest route (as segment ids) from
// vertex u to vertex v.
func (g *Graph) EdgePathBetweenVertices(u, v VertexID) (Route, float64, bool) {
	return g.EdgePathBetweenVerticesCtx(context.Background(), u, v)
}

// NetworkDistance returns the driving distance from location a to location
// b along the network (+Inf when unreachable).
func (g *Graph) NetworkDistance(a, b Location) float64 {
	if a.Edge == b.Edge && b.Offset >= a.Offset {
		return b.Offset - a.Offset
	}
	sa, sb := g.Seg(a.Edge), g.Seg(b.Edge)
	head := sa.Length - a.Offset
	mid := g.Oracle().Dist(sa.To, sb.From)
	if math.IsInf(mid, 1) {
		return mid
	}
	return head + mid + b.Offset
}

// PathBetweenLocations returns the route from a to b including both end
// segments, and the driving distance.
func (g *Graph) PathBetweenLocations(a, b Location) (Route, float64, bool) {
	return g.PathBetweenLocationsCtx(context.Background(), a, b)
}

// VertexGraph exposes the vertex graph weighted by segment length.
func (g *Graph) VertexGraph() *graphalg.Graph { return g.vertexG }

// Validate checks structural invariants and returns the first violation.
func (g *Graph) Validate() error {
	for i := range g.Segments {
		s := &g.Segments[i]
		if s.From < 0 || s.From >= len(g.Vertices) || s.To < 0 || s.To >= len(g.Vertices) {
			return fmt.Errorf("segment %d: vertex out of range", s.ID)
		}
		if len(s.Shape) < 2 {
			return fmt.Errorf("segment %d: shape has %d points", s.ID, len(s.Shape))
		}
		if !s.Shape[0].Equal(g.Vertices[s.From].Pt, 1e-6) {
			return fmt.Errorf("segment %d: shape start mismatch", s.ID)
		}
		if !s.Shape[len(s.Shape)-1].Equal(g.Vertices[s.To].Pt, 1e-6) {
			return fmt.Errorf("segment %d: shape end mismatch", s.ID)
		}
		if s.Speed <= 0 {
			return fmt.Errorf("segment %d: nonpositive speed", s.ID)
		}
	}
	return nil
}
