package core

import (
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/mapmatch"
	"repro/internal/rtree"
	"repro/internal/traj"
)

// dedupPointsInto keeps one reference point per cell×cell meter grid square,
// merging the source-trajectory sets of collapsed points. The output lives in
// sc's point buffer; each entry's sources slice is a fresh copy (nil stays
// nil), so merged source sets never alias the caller's refPoints.
func dedupPointsInto(sc *pairScratch, pts []refPoint, cell float64) []refPoint {
	idx := sc.dedupIdx
	clear(idx)
	out := sc.nniPoints[:0]
	for _, rp := range pts {
		k := [2]int{int(math.Floor(rp.pt.X / cell)), int(math.Floor(rp.pt.Y / cell))}
		if i, ok := idx[k]; ok {
			out[i].sources = append(out[i].sources, rp.sources...)
			continue
		}
		idx[k] = int32(len(out))
		out = append(out, refPoint{pt: rp.pt, sources: append([]int32(nil), rp.sources...)})
	}
	sc.nniPoints = out
	return out
}

// inferNNI implements Nearest Neighbor based Inference (Algorithm 2): a
// depth-first recursion that hops from the current position to admissible
// nearest reference points until q_{i+1} is reached. Two controls shape the
// hop choice — α, a detour-tolerance budget that shrinks whenever a hop
// moves away from the destination (guaranteeing eventual arrival), and β,
// a cap on the relative detour of a hop. With substructure sharing enabled
// the per-point successor lists are memoized, turning the recursion tree
// into the transit graph of Figure 5(d) and saving repeated constrained
// kNN searches; every q_i→q_{i+1} path of that graph is then converted to
// a physical route by map-matching its point sequence.
func (x exec) inferNNI(pctx *pairContext) []LocalRoute {
	p := x.p
	sc := pctx.sc
	points, traces := enumerateTransitTraces(sc, pctx.points, pctx.qi.Pt, pctx.qj.Pt, p, x.done)
	if len(traces) == 0 {
		return nil
	}

	// Convert each trace to a physical route via map-matching (line 3).
	// The traces overwhelmingly reuse the same reference points and the
	// same consecutive snaps, so one memoizing projector serves the whole
	// batch — every candidate search and shortest-path bridge runs once.
	// The projector itself is part of the scratch arena: Reset drops the
	// memos but keeps their backing storage warm across pairs.
	var out []LocalRoute
	mprm := mapmatch.DefaultParams()
	mprm.CandidateRadius = p.CandEps
	if sc.pj == nil {
		sc.pj = mapmatch.NewProjector(x.eng.g, mprm)
	} else {
		sc.pj.Reset(x.eng.g, mprm)
	}
	for _, tr := range traces {
		if graphalg.Stopped(x.done) {
			break // partial route set; the caller degrades the pair
		}
		sc.ptsBuf = tracePointsInto(sc.ptsBuf[:0], points, tr, pctx.qi.Pt, pctx.qj.Pt)
		route, err := sc.pj.Project(x.ctx, sc.ptsBuf)
		if err != nil || len(route) == 0 {
			continue
		}
		if sc.routeSeen(route) {
			continue
		}
		pop, refs := x.scoreRoute(route, pctx)
		out = append(out, LocalRoute{Route: route, Refs: refs, Popularity: pop})
	}
	return capLocalRoutes(out, p.MaxLocalRoutes)
}

// tracePointsInto materializes a transit trace as a point sequence from q_i
// to q_{i+1}, appending to dst. The trailing sink marker (len(points)) is
// skipped.
func tracePointsInto(dst []geo.Point, points []refPoint, trace []int, qi, qj geo.Point) []geo.Point {
	dst = append(dst, qi)
	for _, node := range trace {
		if node < len(points) {
			dst = append(dst, points[node].pt)
		}
	}
	return append(dst, qj)
}

// enumerateTransitTraces runs Algorithm 2's recursion over bare reference
// points and returns the deduplicated point set plus every enumerated
// q_i→q_{i+1} trace (sequences of indices into the returned point set; the
// sink q_{i+1} appears as index len(points)). It needs no road network,
// which is what makes the network-free extension possible. done (nil =
// uncancellable) is polled every 256 recursion steps; a stopped enumeration
// returns the traces completed so far.
//
// All working state — the kNN iterator, the successor arena, the dense memo
// tables — lives in sc. The returned slices are backed by sc and must be
// consumed before the scratch is recycled; the individual traces are fresh
// copies.
func enumerateTransitTraces(sc *pairScratch, rawPoints []refPoint, qiPt, qjPt geo.Point, p Params, done <-chan struct{}) ([]refPoint, [][]int) {
	// Collapse nearby reference points: GPS noise scatters many archive
	// samples of the same road into a 2D band, and at fine resolution every
	// node's k nearest neighbors are band-mates — the transit graph would
	// never leave the band. A 100 m cell (well under the typical reference
	// sample spacing) collapses the band to single file along the roads
	// while keeping the corridor structure the recursion walks on.
	points := dedupPointsInto(sc, rawPoints, 100)
	n := len(points)
	if n == 0 {
		return nil, nil
	}
	const srcNode = -1
	sinkNode := n // the destination participates in the kNN stream

	// Index reference points plus the destination for kNN streaming.
	entries := sc.entries[:0]
	for i, rp := range points {
		entries = append(entries, rtree.Entry[int]{
			Box: geo.BBox{Min: rp.pt, Max: rp.pt}, Item: i,
		})
	}
	entries = append(entries, rtree.Entry[int]{
		Box: geo.BBox{Min: qjPt, Max: qjPt}, Item: sinkNode,
	})
	sc.entries = entries
	idx := rtree.Bulk(entries)

	posOf := func(node int) geo.Point {
		switch {
		case node == srcNode:
			return qiPt
		case node == sinkNode:
			return qjPt
		default:
			return points[node].pt
		}
	}
	dest := qjPt

	// successors performs the constrained kNN of Algorithm 2 lines 7–17.
	// The returned slice is sc.nn — valid only until the next call.
	successors := func(node int, alpha float64) []int {
		pc := posOf(node)
		dCur := pc.Dist(dest)
		nn := sc.nn[:0]
		it := &sc.nnIter
		idx.NearestInto(pc, it)
		for len(nn) < p.K2 {
			e, _, ok := it.Next()
			if !ok {
				break
			}
			cand := e.Item
			if cand == node {
				continue
			}
			cp := posOf(cand)
			hop := pc.Dist(cp)
			if hop < 1e-9 {
				continue // co-located sample: no progress
			}
			if cp.Dist(dest)-alpha > dCur {
				continue // line 9: drifting away beyond the α budget
			}
			if dCur > 1e-9 && (hop+cp.Dist(dest))/dCur > p.Beta {
				continue // line 11: relative detour too long
			}
			if cand == sinkNode {
				nn = append(nn[:0], sinkNode) // lines 13–16: go straight home
				sc.nn = nn
				return nn
			}
			nn = append(nn, cand)
		}
		// Explore the most promising hop first: the admissible set is the
		// constrained kNN of the algorithm; ordering children by remaining
		// distance lets the DFS reach the destination without exhausting
		// its budget inside dense clusters.
		sort.Slice(nn, func(a, b int) bool {
			return posOf(nn[a]).Dist2(dest) < posOf(nn[b]).Dist2(dest)
		})
		sc.nn = nn
		return nn
	}

	// The dense memo maps node → an (offset, length) window of succArena,
	// replacing the map[int][]int. Indexing is node+1 so the virtual source
	// (-1) and sink (n) fit. Windows are re-sliced from the current arena at
	// every use: append may move the backing array, but it never mutates
	// already-written elements, so recorded windows stay valid across growth.
	memoOff, memoLen := sc.memoOff, sc.memoLen
	if cap(memoOff) < n+2 {
		memoOff = make([]int32, n+2)
		memoLen = make([]int32, n+2)
	} else {
		memoOff, memoLen = memoOff[:n+2], memoLen[:n+2]
	}
	for i := range memoLen {
		memoLen[i] = -1
	}
	sc.memoOff, sc.memoLen = memoOff, memoLen
	sc.succArena = sc.succArena[:0]

	onPath := sc.onPath
	if cap(onPath) < n+2 {
		onPath = make([]bool, n+2)
	} else {
		onPath = onPath[:n+2]
		clear(onPath)
	}
	sc.onPath = onPath

	// Depth-first enumeration with optional transit-graph sharing. The
	// step budget bounds the exploration when sharing is disabled — the
	// recursion tree of Figure 5(b) grows combinatorially, which is the
	// inefficiency the transit graph exists to fix (Figure 13b).
	steps := 0
	maxSteps := (p.MaxNNIPaths + 1) * 400
	traces := sc.traces[:0]
	trace := sc.trace[:0]
	var dfs func(node int, alpha float64)
	dfs = func(node int, alpha float64) {
		steps++
		if steps > maxSteps || len(traces) >= p.MaxNNIPaths {
			return
		}
		if steps&255 == 0 && graphalg.Stopped(done) {
			steps = maxSteps + 1 // poison the budget: unwind the whole tree
			return
		}
		if node == sinkNode {
			traces = append(traces, append([]int(nil), trace...))
			return
		}
		// The sc.nn buffer successors() fills is clobbered by the recursive
		// calls below, so every successor list — memoized or not — is copied
		// into the arena before iteration. Without sharing, the window is
		// popped again on unwind, bounding the arena to depth×K2.
		arenaMark := int32(len(sc.succArena))
		var off, ln int32
		if p.ShareSubstructures && memoLen[node+1] >= 0 {
			off, ln = memoOff[node+1], memoLen[node+1]
		} else {
			s := successors(node, alpha)
			off, ln = arenaMark, int32(len(s))
			sc.succArena = append(sc.succArena, s...)
			if p.ShareSubstructures {
				memoOff[node+1], memoLen[node+1] = off, ln
			}
		}
		succ := sc.succArena[off : off+ln]
		pc := posOf(node)
		advanced := false
		for _, next := range succ {
			if onPath[next+1] {
				continue
			}
			advanced = true
			// Line 20, read with the accompanying text: "if the next point
			// is indeed further [from the destination], we deduct this
			// deviation from α". The budget only shrinks — regaining it on
			// forward hops would permit unbounded oscillation.
			nextAlpha := alpha
			if drift := posOf(next).Dist(dest) - pc.Dist(dest); drift > 0 {
				nextAlpha -= drift
			}
			onPath[next+1] = true
			trace = append(trace, next)
			dfs(next, nextAlpha)
			trace = trace[:len(trace)-1]
			onPath[next+1] = false
		}
		// Dead end: no admissible onward reference point. Rather than
		// discarding the partial trace, hop straight to the destination —
		// the resulting route follows the references as far as they lead
		// and bridges the rest, which still beats a blind shortest path.
		if !advanced && node != srcNode {
			trace = append(trace, sinkNode)
			dfs(sinkNode, alpha)
			trace = trace[:len(trace)-1]
		}
		if !p.ShareSubstructures {
			sc.succArena = sc.succArena[:arenaMark]
		}
	}
	onPath[srcNode+1] = true
	dfs(srcNode, p.Alpha)
	sc.traces, sc.trace = traces, trace
	return points, traces
}

// inferLocal dispatches to the configured local inference method; the
// hybrid approach (§III-B.3) estimates the reference point density
// ρ = |P_i| / area(MBR(P_i)) and picks NNI below τ (where its adaptive kNN
// beats TGI's fixed λ radius) and TGI above (where it is both more accurate
// and cheaper).
func (x exec) inferLocal(ctx *pairContext) ([]LocalRoute, Method) {
	switch x.p.Method {
	case MethodTGI:
		return x.inferTGI(ctx), MethodTGI
	case MethodNNI:
		return x.inferNNI(ctx), MethodNNI
	}
	if ctx.density() < x.p.Tau {
		return x.inferNNI(ctx), MethodNNI
	}
	return x.inferTGI(ctx), MethodTGI
}

// fallbackLocal produces a shortest-path local route when no references
// exist for a pair, keeping the pipeline total on sparse archives. Its
// popularity is a small constant so any reference-supported alternative
// outranks it.
func (x exec) fallbackLocal(qi, qj traj.GPSPoint) []LocalRoute {
	a, okA := x.eng.g.LocationOf(qi.Pt)
	b, okB := x.eng.g.LocationOf(qj.Pt)
	if !okA || !okB {
		return nil
	}
	route, _, ok := x.eng.g.PathBetweenLocations(a, b)
	if !ok {
		// Try the opposite candidate assignment before giving up: the
		// nearest edge can be the wrong direction of a two-way street.
		return nil
	}
	return []LocalRoute{{
		Route:      route,
		Refs:       nil,
		Popularity: entropySmoothing,
	}}
}
