package roadnet

import (
	"strconv"

	"repro/internal/geo"
)

// Route is a set of connected road segments (Definition 4):
// R: r_1 -> r_2 -> ... -> r_n with r_{k+1}.s = r_k.e.
type Route []EdgeID

// Length returns the total driving length of the route in meters.
func (r Route) Length(g *Graph) float64 {
	var l float64
	for _, e := range r {
		l += g.Seg(e).Length
	}
	return l
}

// Valid reports whether consecutive segments are connected end-to-start
// (Definition 4). The empty route is valid.
func (r Route) Valid(g *Graph) bool {
	for i := 1; i < len(r); i++ {
		if g.Seg(r[i]).From != g.Seg(r[i-1]).To {
			return false
		}
	}
	return true
}

// Start returns R.s, the start vertex of the route.
func (r Route) Start(g *Graph) VertexID {
	if len(r) == 0 {
		return -1
	}
	return g.Seg(r[0]).From
}

// End returns R.e, the end vertex of the route.
func (r Route) End(g *Graph) VertexID {
	if len(r) == 0 {
		return -1
	}
	return g.Seg(r[len(r)-1]).To
}

// Dedup removes immediately repeated segment ids (which arise when
// bridging routes that share boundary segments) while preserving order.
func (r Route) Dedup() Route {
	if len(r) < 2 {
		return r
	}
	out := Route{r[0]}
	for _, e := range r[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

// Concat joins r with s (the paper's ◇ operator), bridging any gap between
// r's end and s's start with a shortest path. ok=false when no bridge
// exists.
func (r Route) Concat(g *Graph, s Route) (Route, bool) {
	if len(r) == 0 {
		return s, true
	}
	if len(s) == 0 {
		return r, true
	}
	joined := append(Route{}, r...)
	if g.Seg(s[0]).From == r.End(g) || s[0] == r[len(r)-1] {
		joined = append(joined, s...)
		return joined.Dedup(), true
	}
	bridge, _, ok := g.EdgePathBetweenVertices(r.End(g), g.Seg(s[0]).From)
	if !ok {
		return nil, false
	}
	joined = append(joined, bridge...)
	joined = append(joined, s...)
	return joined.Dedup(), true
}

// AppendConcat is Concat ∘ Dedup with r's backing array reused: a route
// grown join by join (a stitched match, a projected traverse-graph path) would
// otherwise copy itself at every step. r must be free of immediately repeated
// segments, which makes deduplicating the appended part equal to
// re-deduplicating the whole; ok=false leaves r unchanged.
func (r Route) AppendConcat(g *Graph, s Route) (Route, bool) {
	if u, v, gap := r.gapTo(g, s); gap {
		bridge, _, ok := g.EdgePathBetweenVertices(u, v)
		if !ok {
			return r, false
		}
		r = r.appendDedup(bridge)
	}
	return r.appendDedup(s), true
}

// gapTo reports whether joining s to r needs a bridge, and if so its ends:
// from r's end vertex u to s's start vertex v.
func (r Route) gapTo(g *Graph, s Route) (u, v VertexID, gap bool) {
	if len(r) == 0 || len(s) == 0 || s[0] == r[len(r)-1] {
		return 0, 0, false
	}
	u, v = r.End(g), g.Seg(s[0]).From
	return u, v, u != v
}

// appendDedup appends s to r, dropping segments that repeat the one before
// them.
func (r Route) appendDedup(s Route) Route {
	for _, e := range s {
		if len(r) == 0 || e != r[len(r)-1] {
			r = append(r, e)
		}
	}
	return r
}

// Points returns the polyline of the whole route.
func (r Route) Points(g *Graph) geo.Polyline {
	var pl geo.Polyline
	for _, e := range r {
		shape := g.Seg(e).Shape
		if len(pl) > 0 && len(shape) > 0 && pl[len(pl)-1].Equal(shape[0], 1e-9) {
			shape = shape[1:]
		}
		pl = append(pl, shape...)
	}
	return pl
}

// Equal reports whether two routes are the same segment sequence.
func (r Route) Equal(s Route) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if r[i] != s[i] {
			return false
		}
	}
	return true
}

// Key returns a compact map key for the route.
func (r Route) Key() string {
	b := make([]byte, 0, len(r)*6)
	for i, e := range r {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(b)
}

// String implements fmt.Stringer.
func (r Route) String() string { return "[" + r.Key() + "]" }
