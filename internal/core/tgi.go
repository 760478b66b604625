package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// inferTGI implements Traverse Graph based Inference (Algorithm 1).
//
// The traverse graph is a conceptual directed graph whose nodes are the
// traverse edges — road segments that are candidate edges of some reference
// point (Definition 9) — plus the candidate edges of q_i and q_{i+1}. A
// link r→s exists when s lies in the λ-neighborhood of r, weighted by the
// hop distance h(r,s). Graph augmentation makes the graph strongly
// connected; transitive graph reduction drops redundant links; Yen's
// K-shortest-path search between every candidate-edge pair yields paths
// that are finally projected back onto the physical road network.
func (x exec) inferTGI(pctx *pairContext) []LocalRoute {
	sc := pctx.sc
	srcs, dsts := x.traverseGraph(pctx)
	if len(srcs) == 0 {
		return nil
	}
	// K-shortest paths between every (source, destination) candidate pair
	// (lines 11–13), projected to physical routes (line 14). The solver keeps
	// one reverse shortest-path tree per destination, which serves every
	// source; a call's paths live in its arena until the next call, so each
	// is projected before the next search starts.
	sc.ksp.Reset(&sc.tg)
	var out []LocalRoute
	for _, se := range srcs {
		if graphalg.Stopped(x.done) {
			break
		}
		for _, de := range dsts {
			for _, path := range sc.ksp.Paths(x.done, int(sc.nodeSlot[se]), int(sc.nodeSlot[de]), x.p.K1) {
				buf, ok := projectPath(x.eng.g, path.Vertices, sc.tgEdges, sc)
				if !ok {
					continue
				}
				if route, seen := sc.routeSeen(buf); !seen {
					pop, refs := x.scoreRoute(route, pctx)
					out = append(out, LocalRoute{Route: route, Refs: refs, Popularity: pop})
				}
			}
		}
	}
	return capLocalRoutes(out, x.p.MaxLocalRoutes)
}

// traverseGraph builds the pair's traverse graph (Algorithm 1, lines 1–10) in
// sc.tg — node i is road segment sc.tgEdges[i], sc.nodeSlot maps back — and
// returns the candidate edges of q_i and q_{i+1}, its sources and
// destinations: both nil when either query point has none.
func (x exec) traverseGraph(pctx *pairContext) (srcs, dsts []roadnet.EdgeID) {
	g := x.eng.g
	p := x.p
	sc := pctx.sc

	srcs = x.queryCandidates(pctx.qi.Pt, sc.srcCand)
	sc.srcCand = srcs
	dsts = x.queryCandidates(pctx.qj.Pt, sc.dstCand)
	sc.dstCand = dsts
	if len(srcs) == 0 || len(dsts) == 0 {
		return nil, nil
	}

	// Node set: traverse edges plus the query candidate edges, mapped
	// through the stamped nodeSlot array instead of a per-pair map.
	sc.beginNodes(g.NumSegments())
	edges := sc.tgEdges[:0]
	addNode := func(e roadnet.EdgeID) {
		if sc.nodeVer[e] == sc.nver {
			return
		}
		sc.nodeVer[e] = sc.nver
		sc.nodeSlot[e] = int32(len(edges))
		edges = append(edges, e)
	}
	// Ascending insertion keeps the traverse graph — and with it Yen's
	// tie-breaking among equal-weight paths — deterministic across runs.
	// (sc.edges is in first-touch order; the map-based code sorted its
	// keys, which yields the same sequence.)
	sc.ascending.reserve(g.NumSegments())
	for _, e := range sc.edges {
		sc.ascending.add(int32(e))
	}
	sc.ordered = sc.ascending.drain(sc.ordered[:0])
	for _, e := range sc.ordered {
		addNode(roadnet.EdgeID(e))
	}
	for _, e := range srcs {
		addNode(e)
	}
	for _, e := range dsts {
		addNode(e)
	}
	sc.tgEdges = edges

	// Links to λ-neighborhoods (lines 6–8). Membership follows Definition 8
	// (hop distance < λ); the link weight approximates the physical driving
	// length of taking the link — the straight-line gap between r's end and
	// s's start plus s's length — so that the K "shortest" paths of line 13
	// are the physically shortest reference-supported routes rather than
	// the fewest-hop ones.
	//
	// The search is stamped, so it costs the segments it reaches; the nodes
	// among them are linked in ascending node order, the order a scan of
	// every node would add them in.
	tg := &sc.tg
	tg.Reset(len(edges))
	hs := &sc.hopSearch
	sc.ascending.reserve(len(edges))
	for i, r := range edges {
		if graphalg.Stopped(x.done) {
			break // truncated traverse graph; the caller degrades the pair
		}
		for _, s := range g.EdgeHopsFrom(x.ctx, hs, r, p.Lambda-1) {
			if h := hs.Hops(s); h > 0 && h < p.Lambda && sc.nodeVer[s] == sc.nver {
				sc.ascending.add(sc.nodeSlot[s])
			}
		}
		links := sc.ascending.drain(sc.ordered[:0])
		sc.ordered = links
		rEnd := g.Vertices[g.Seg(r).To].Pt
		for _, j := range links {
			sSeg := g.Seg(edges[j])
			gap := rEnd.Dist(g.Vertices[sSeg.From].Pt)
			tg.AddArc(i, int(j), gap+sSeg.Length)
		}
	}

	// Connectivity work — augmentation plus link culling — is the part of
	// TGI whose cost scales with λ (Figure 9's local-inference driver), so
	// it gets its own stage timing.
	t0 := x.stageStart()
	augmentStronglyConnected(tg, edges, g, x.done, sc)
	if p.GraphReduction {
		reduceTraverseGraph(tg, x.done, sc)
	}
	x.stageDone(obs.StageConnectionCulling, pctx.pair, t0, len(edges))

	return srcs, dsts
}

// queryCandidates returns candidate edges of a query point, widening to the
// nearest edges when the ε-radius finds none, capped to keep the
// K-shortest-path stage tractable. The result is written into buf's backing
// array.
func (x exec) queryCandidates(pt geo.Point, buf []roadnet.EdgeID) []roadnet.EdgeID {
	const maxQueryCandidates = 3
	cands := x.eng.g.CandidateEdges(pt, x.p.CandEps)
	if len(cands) == 0 {
		cands = x.eng.g.NearestCandidates(pt, maxQueryCandidates)
	}
	if len(cands) > maxQueryCandidates {
		cands = cands[:maxQueryCandidates]
	}
	buf = buf[:0]
	for _, c := range cands {
		buf = append(buf, c.Edge)
	}
	return buf
}

// augmentStronglyConnected implements the graph-augmentation subroutine:
// while the traverse graph is not strongly connected, link the closest pair
// of nodes from different components with two directed arcs (the k=1
// special case of the connectivity augmentation problem, solved greedily
// like a minimum spanning tree over components). Each augmentation round
// checks done: an interrupted run leaves the graph only partially
// connected, which merely loses some K-shortest-path results. sc supplies
// the midpoint and component buffers.
func augmentStronglyConnected(tg *graphalg.Graph, edges []roadnet.EdgeID, g *roadnet.Graph, done <-chan struct{}, sc *pairScratch) {
	mid := sc.mid[:0]
	for _, e := range edges {
		seg := g.Seg(e)
		mid = append(mid, seg.Shape.At(seg.Length/2))
	}
	sc.mid = mid
	for {
		if graphalg.Stopped(done) {
			return
		}
		comp, count := graphalg.StronglyConnectedComponentsInto(tg, sc.comp)
		sc.comp = comp
		if count <= 1 {
			return
		}
		bi, bj, best := -1, -1, math.Inf(1)
		for i := range edges {
			for j := i + 1; j < len(edges); j++ {
				if comp[i] == comp[j] {
					continue
				}
				if d := mid[i].Dist(mid[j]); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		if bi < 0 {
			return
		}
		// The augmented link's weight is the physical gap it spans plus the
		// target edge, consistent with the λ-neighborhood link weights.
		tg.AddArc(bi, bj, best+g.Seg(edges[bj]).Length)
		tg.AddArc(bj, bi, best+g.Seg(edges[bi]).Length)
	}
}

// inArc is an arc of reduceTraverseGraph's reverse index: its source and its
// weight, +Inf once removed.
type inArc struct {
	from int32
	w    float64
}

// reduceTraverseGraph removes redundant links: r→k is redundant when some
// intermediate node j has live links r→j and j→k whose weights compose to
// within 30 m of w(r,k) — the float-weight analogue of the paper's exact hop
// composition rule h(r_i,r_k) = h(r_i,r_j)+h(r_j,r_k)+1. The tolerance
// absorbs street curvature and vertex jitter; removed links change path
// weights by at most this amount, so removal keeps shortest-path distances
// within it while shrinking the search space of the K-shortest-path stage.
// Each link is judged once, by a scan of k's in-arcs that stops at the first
// witness. sc supplies the adjacency rows.
func reduceTraverseGraph(tg *graphalg.Graph, done <-chan struct{}, sc *pairScratch) {
	// CSR copy of the graph: row u holds u's distinct targets in ascending
	// order, each with the lightest of its parallel arcs. Arcs arrive almost
	// sorted (the λ-neighborhood scan adds them by ascending target, only
	// augmentation appends out of order), so insertion keeps the row sorted.
	n := tg.N()
	off, to, w := append(sc.redOff[:0], 0), sc.redTo[:0], sc.redW[:0]
	for u := 0; u < n; u++ {
		lo := len(to)
		for _, a := range tg.Adj[u] {
			i := len(to)
			for i > lo && to[i-1] > int32(a.To) {
				i--
			}
			if i > lo && to[i-1] == int32(a.To) {
				w[i-1] = min(w[i-1], a.W)
				continue
			}
			to, w = slices.Insert(to, i, int32(a.To)), slices.Insert(w, i, a.W)
		}
		off = append(off, int32(len(to)))
	}
	sc.redOff, sc.redTo, sc.redW = off, to, w
	// The reverse index: k's in-arcs are in[inOff[k]:inOff[k+1]], each its
	// source and weight, and inAt[a] is the in-arc of row position a, through
	// which a removal sets that weight to +Inf.
	inOff := slices.Grow(sc.redInOff[:0], n+2)[:n+2]
	in, inAt := slices.Grow(sc.redIn[:0], len(to))[:len(to)], slices.Grow(sc.redInAt[:0], len(to))[:len(to)]
	clear(inOff)
	for _, k := range to {
		inOff[k+2]++
	}
	for k := 2; k < len(inOff); k++ {
		inOff[k] += inOff[k-1]
	}
	for u := 0; u < n; u++ {
		for a := off[u]; a < off[u+1]; a++ {
			k := to[a] + 1
			in[inOff[k]], inAt[a] = inArc{from: int32(u), w: w[a]}, inOff[k]
			inOff[k]++
		}
	}
	sc.redInOff, sc.redIn, sc.redInAt = inOff, in, inAt
	// row[j] is w(r,j) while r→j is a live link of the row being reduced, and
	// +Inf otherwise: a removed link completes no detour.
	row := slices.Grow(sc.redRow[:0], n)[:n]
	sc.redRow = row
	for j := range row {
		row[j] = math.Inf(1)
	}
	const tol = 30.0 // meters
	for r := 0; r < n; r++ {
		// Reduction only ever removes redundant links, so stopping part-way
		// leaves a valid (just less pruned) traverse graph.
		if graphalg.Stopped(done) {
			return
		}
		lo, hi := off[r], off[r+1]
		for i := lo; i < hi; i++ {
			row[to[i]] = w[i]
		}
		// Removal order matters — deleting r→k takes away the witness k was
		// for other links of r — so links go in row (= ascending target)
		// order, each judged by the witnesses still linked when its turn
		// comes, to keep the reduced graph (and the K-shortest-path results on
		// it) identical across runs.
		removed := false
		for i := lo; i < hi; i++ {
			k := to[i]
			for _, e := range in[inOff[k]:inOff[k+1]] {
				if e.from != k && row[e.from]+e.w <= w[i]+tol {
					row[k], in[inAt[i]].w, removed = math.Inf(1), math.Inf(1), true
					break
				}
			}
		}
		if removed {
			tg.Adj[r] = slices.DeleteFunc(tg.Adj[r], func(a graphalg.Arc) bool { return math.IsInf(row[a.To], 1) })
		}
		for i := lo; i < hi; i++ {
			row[to[i]] = math.Inf(1)
		}
	}
}

// projectPath maps a traverse-graph path (node indices) to a physical road
// route, bridging non-adjacent consecutive edges with shortest paths from
// the pair's bridge memo. The route is assembled in, and aliases,
// sc.routeBuf: routeSeen publishes it.
func projectPath(g *roadnet.Graph, nodes []int, edges []roadnet.EdgeID, sc *pairScratch) (roadnet.Route, bool) {
	if len(nodes) == 0 {
		return nil, false
	}
	buf := append(sc.routeBuf[:0], edges[nodes[0]])
	ok := true
	for _, n := range nodes[1:] {
		buf, ok = sc.bridges.AppendConcat(buf, edges[n:n+1])
		if !ok {
			break
		}
	}
	sc.routeBuf = buf
	return buf, ok && buf.Valid(g)
}

// capLocalRoutes sorts by popularity (descending) and keeps at most max.
func capLocalRoutes(rs []LocalRoute, max int) []LocalRoute {
	slices.SortStableFunc(rs, func(a, b LocalRoute) int { return cmp.Compare(b.Popularity, a.Popularity) })
	if max > 0 && len(rs) > max {
		rs = rs[:max]
	}
	return rs
}
