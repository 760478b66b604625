package roadnet

import (
	"context"
	"slices"
)

// Bridges memoises the shortest routes between vertex pairs — the bridges
// of the paper's ◇ operator — over one unit of work, an inference pair: a
// bridge asked for again, by TGI projecting another K-shortest path or by
// the trace projector stitching another trace, is answered without a
// search. Routes are kept back to back in one arena. A failure is kept too,
// unless it was seen under a cancelled context: that means "aborted", not
// "unreachable".
//
// The zero value is ready for Reset. Not safe for concurrent use.
type Bridges struct {
	g      *Graph
	runs   map[uint64]bridgeRun // uint32(from)<<32 | uint32(to)
	arena  []EdgeID
	misses int // Path calls since Reset that searched the graph
}

// bridgeRun is arena[off : off+n]; n < 0 records that no route exists.
type bridgeRun struct{ off, n int32 }

// Reset empties the memo, keeping its storage, and binds it to g.
func (b *Bridges) Reset(g *Graph) {
	b.g = g
	if b.runs == nil {
		b.runs = make(map[uint64]bridgeRun)
	}
	clear(b.runs)
	b.arena = b.arena[:0]
	b.misses = 0
}

// Pairs returns the distinct ⟨from, to⟩ pairs Path was asked for since
// Reset, ascending, leaving out those whose search a cancellation aborted.
func (b *Bridges) Pairs() [][2]VertexID {
	out := make([][2]VertexID, 0, len(b.runs))
	for k := range b.runs {
		out = append(out, [2]VertexID{VertexID(int32(k >> 32)), VertexID(int32(k))})
	}
	slices.SortFunc(out, func(x, y [2]VertexID) int { return slices.Compare(x[:], y[:]) })
	return out
}

// Path is EdgePathBetweenVerticesCtx(ctx, u, v) without the weight, through
// the memo. The route aliases the arena until the next Reset; it is capped
// at its length, so appending to it copies.
func (b *Bridges) Path(ctx context.Context, u, v VertexID) (Route, bool) {
	k := uint64(uint32(u))<<32 | uint64(uint32(v))
	if r, hit := b.runs[k]; hit {
		if r.n < 0 {
			return nil, false
		}
		return b.arena[r.off : r.off+r.n : r.off+r.n], true
	}
	b.misses++
	vs, _, ok := b.g.VertexPathCtx(ctx, u, v)
	off := len(b.arena)
	if ok {
		b.arena, ok = b.g.appendEdges(b.arena, vs)
	}
	if !ok {
		if ctx.Err() == nil {
			b.runs[k] = bridgeRun{n: -1}
		}
		return nil, false
	}
	end := len(b.arena)
	b.runs[k] = bridgeRun{off: int32(off), n: int32(end - off)}
	return b.arena[off:end:end], true
}

// AppendConcat is r.AppendConcat(b's graph, s) with the bridge, if one is
// needed, served by the memo. Like Route.AppendConcat it is not cancellable.
func (b *Bridges) AppendConcat(r, s Route) (Route, bool) {
	if u, v, gap := r.gapTo(b.g, s); gap {
		bridge, ok := b.Path(context.Background(), u, v)
		if !ok {
			return r, false
		}
		r = r.appendDedup(bridge)
	}
	return r.appendDedup(s), true
}
