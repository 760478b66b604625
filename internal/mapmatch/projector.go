package mapmatch

import (
	"context"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/roadnet"
)

// Projector converts the transit-graph traces of one query pair into routes
// (Algorithm 2 line 3: each point snaps to its best direction-compatible
// candidate edge, its heading taken from its successor, and consecutive snaps
// are stitched with shortest paths). It is Reset with the pair's point table
// and then projects index sequences into that table.
//
// NNI's depth-first enumeration emits traces in trie order, so a trace mostly
// repeats its predecessor's prefix. The projector keeps the previous sequence
// and, per position, a checkpoint of the stitch state before that position;
// a sequence sharing c leading indices with the previous one resumes at
// position c−1 (that point's snap looks at its successor, which may differ)
// instead of at 0. What is recomputed is served from integer-keyed memos: a
// point's candidates by table index, a snap by (point, neighbour, mode), and
// the shortest path between two snaps' edges by the caller's bridge memo,
// keyed by its two vertices. The graph is immutable and every primitive
// deterministic, so a resumed, memo-served route is identical to one
// projected from scratch.
//
// The zero value is ready for Reset. Not safe for concurrent use.
type Projector struct {
	g    *roadnet.Graph
	prm  Params
	pts  []geo.Point
	rows RowSource

	// cands holds MaxCandidates slots per table point, ncand how many are
	// filled (-1: not computed yet).
	cands   []roadnet.Candidate
	ncand   []int32
	rowBuf  []roadnet.EdgeID
	snaps   map[uint64]snapVal // point<<33 | neighbour<<2 | mode
	bridges *roadnet.Bridges
	part    roadnet.Route // the bridge being joined

	st   stitcher
	prev []int        // the sequence the checkpoints belong to
	ckpt []checkpoint // ckpt[i]: stitch state before position i of prev
}

// RowSource supplies candidate edges an index already holds for table
// points, sparing the projector the segment-grid search.
type RowSource interface {
	// CandidateRow appends to dst the edges of CandidateEdges(pts[i],
	// CandidateRadius), in that order, if they are stored for table point i,
	// and returns dst unchanged otherwise.
	CandidateRow(i int, dst []roadnet.EdgeID) []roadnet.EdgeID
}

type snapVal struct {
	loc roadnet.Location
	ok  bool
}

type checkpoint struct {
	n    int // len(route)
	cur  roadnet.Location
	have bool
}

// Reset binds the projector to a pair's point table and empties its memos
// and the resume state, keeping their storage. rows may be nil. bridges
// serves the shortest paths between snaps; it must be bound to g, and the
// caller owns it — it may share it with other users of g and decides when
// to reset it. pts must stay unchanged until the next Reset.
func (pj *Projector) Reset(g *roadnet.Graph, prm Params, pts []geo.Point, rows RowSource, bridges *roadnet.Bridges) {
	pj.g, pj.prm, pj.pts, pj.rows, pj.bridges = g, prm, pts, rows, bridges
	if pj.snaps == nil {
		pj.snaps = make(map[uint64]snapVal)
	}
	clear(pj.snaps)
	if n := len(pts) * prm.MaxCandidates; cap(pj.cands) < n {
		pj.cands = make([]roadnet.Candidate, n)
	}
	pj.ncand = pj.ncand[:0]
	for range pts {
		pj.ncand = append(pj.ncand, -1)
	}
	pj.prev = pj.prev[:0]
}

// candidates returns table point i's candidates: the first MaxCandidates
// edges of its stored row, or candidatesFor's search when there is no row (a
// query point, or an archive point with no edge inside ε, which widens).
func (pj *Projector) candidates(i int) []roadnet.Candidate {
	max := pj.prm.MaxCandidates
	out := pj.cands[i*max : i*max : (i+1)*max]
	if n := pj.ncand[i]; n >= 0 {
		return out[:n]
	}
	p := pj.pts[i]
	if pj.rows != nil {
		pj.rowBuf = pj.rows.CandidateRow(i, pj.rowBuf[:0])
		for _, e := range pj.rowBuf[:min(len(pj.rowBuf), max)] {
			out = append(out, pj.g.CandidateOn(p, e))
		}
	}
	if len(out) == 0 {
		out = append(out, candidatesFor(pj.g, p, pj.prm)...)
	}
	pj.ncand[i] = int32(len(out))
	return out
}

// snap snaps position i of seq, orienting by the next position, by the
// previous one at the tail, by nothing in a one-point sequence.
func (pj *Projector) snap(seq []int, i int) (roadnet.Location, bool) {
	p, o, m := seq[i], seq[i], snapLone
	if i+1 < len(seq) {
		o, m = seq[i+1], snapToNext
	} else if i > 0 {
		o, m = seq[i-1], snapFromPrev
	}
	k := uint64(p)<<33 | uint64(o)<<2 | uint64(m)
	if v, hit := pj.snaps[k]; hit {
		return v.loc, v.ok
	}
	loc, ok := snapPoint(pj.g, pj.prm, pj.candidates(p), pj.pts[p], pj.pts[o], m)
	pj.snaps[k] = snapVal{loc: loc, ok: ok}
	return loc, ok
}

// bridge is PathBetweenLocationsCtx with the search between a's edge end and
// b's edge start served by the bridge memo, assembled in pj.part without
// its deduplication: the stitch step appends it to a route that ends on
// a's edge, dropping repeats as it goes, so the joined route is the same.
func (pj *Projector) bridge(ctx context.Context, a, b roadnet.Location) (roadnet.Route, bool) {
	pj.part = append(pj.part[:0], a.Edge)
	if a.Edge == b.Edge && b.Offset >= a.Offset {
		return pj.part, true
	}
	if u, v := pj.g.Seg(a.Edge).To, pj.g.Seg(b.Edge).From; u != v {
		mid, ok := pj.bridges.Path(ctx, u, v)
		if !ok {
			return nil, false
		}
		pj.part = append(pj.part, mid...)
	}
	pj.part = append(pj.part, b.Edge)
	return pj.part, true
}

// Project converts the point sequence pts[seq[0]], pts[seq[1]], … to a route,
// or fails with ErrNoRoute when no point snaps. The route aliases the
// projector's buffer until the next call; copy it to keep it. A cancelled
// call returns ctx.Err() and leaves no resume state behind.
func (pj *Projector) Project(ctx context.Context, seq []int) (roadnet.Route, error) {
	r := 0
	for r < len(seq) && r < len(pj.prev) && seq[r] == pj.prev[r] {
		r++
	}
	st, prev := &pj.st, pj.prev
	pj.prev = prev[:0]
	var k checkpoint // position 0 starts from nothing
	if r = max(r-1, 0); r > 0 {
		k = pj.ckpt[r]
	}
	st.route, st.cur, st.have = st.route[:k.n], k.cur, k.have
	pj.ckpt = pj.ckpt[:r]
	done := ctx.Done()
	for i := r; i < len(seq); i++ {
		if graphalg.Stopped(done) {
			return nil, ctx.Err()
		}
		pj.ckpt = append(pj.ckpt, checkpoint{n: len(st.route), cur: st.cur, have: st.have})
		loc, ok := pj.snap(seq, i)
		if !ok {
			continue
		}
		var part roadnet.Route
		if st.have {
			part, ok = pj.bridge(ctx, st.cur, loc)
		}
		st.step(pj.g, loc, part, ok)
	}
	// A bridge aborted by the last position's cancellation went uncached but
	// still shaped the route: it must neither be returned nor resumed from.
	if graphalg.Stopped(done) {
		return nil, ctx.Err()
	}
	pj.prev = append(prev[:r], seq[r:]...)
	if !st.have {
		return nil, ErrNoRoute
	}
	return st.route, nil
}
