package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/mapmatch"
	"repro/internal/traj"
)

// nniCell is the grid NNI collapses reference points on, in meters.
const nniCell = 100

// cellKey packs p's grid cell into one map key. A cell index fits int32 for
// any planar coordinate below 2·10¹¹ m, so distinct cells get distinct keys.
func cellKey(p geo.Point) uint64 {
	return uint64(uint32(int32(math.Floor(p.X/nniCell))))<<32 | uint64(uint32(int32(math.Floor(p.Y/nniCell))))
}

// dedupPointsInto lays out the pair's point table in sc: q_i, then the first
// reference point seen in each grid cell together with the archive sample it
// is, then q_{i+1}. sc.dedupIdx is left mapping every occupied cell to its
// table index.
func dedupPointsInto(sc *pairScratch, raw []refPoint, qi, qj geo.Point) {
	idx := sc.dedupIdx
	clear(idx)
	pts, src := append(sc.nniPts[:0], qi), sc.nniSrc[:0]
	for _, rp := range raw {
		k := cellKey(rp.pt)
		if _, ok := idx[k]; ok {
			continue
		}
		idx[k] = int32(len(pts))
		pts, src = append(pts, rp.pt), append(src, rp.sampleID)
	}
	sc.nniPts, sc.nniSrc = append(pts, qj), src
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
	off := enumerateTransitTraces(sc, pctx.points, pctx.qi.Pt, pctx.qj.Pt, p, x.done)
	if len(off) < 2 {
		return nil
	}

	// Convert each trace to a physical route via map-matching (line 3). The
	// traces arrive in depth-first order, each repeating most of its
	// predecessor, so the arena's projector resumes one from the other, reads
	// archive points' candidate edges off the match tables (sc is its row
	// source), takes its bridges from the pair's memo and hands back a
	// scratch-backed route; most are duplicates, and routeSeen copies out
	// only the new ones.
	var out []LocalRoute
	mprm := mapmatch.DefaultParams()
	mprm.CandidateRadius = p.CandEps
	sc.pj.Reset(x.eng.g, mprm, sc.nniPts, sc, &sc.bridges)
	for t := 0; t+1 < len(off); t++ {
		if graphalg.Stopped(x.done) {
			break // partial route set; the caller degrades the pair
		}
		buf, err := sc.pj.Project(x.ctx, sc.traces[off[t]:off[t+1]])
		if err != nil {
			continue
		}
		if route, seen := sc.routeSeen(buf); !seen {
			pop, refs := x.scoreRoute(route, pctx)
			out = append(out, LocalRoute{Route: route, Refs: refs, Popularity: pop})
		}
	}
	if x.met != nil {
		x.met.nniTraces.Add(uint64(len(off) - 1))
		x.met.nniRoutes.Add(uint64(len(out)))
	}
	return capLocalRoutes(out, p.MaxLocalRoutes)
}

// enumerateTransitTraces runs Algorithm 2's recursion over bare reference
// points. It lays the pair's point table out in sc.nniPts (see
// dedupPointsInto) and enumerates q_i→q_{i+1} traces as index sequences into
// it, each from 0 (q_i) to len(sc.nniPts)-1 (q_{i+1}), stored back to back in
// sc.traces: trace t is sc.traces[off[t]:off[t+1]] of the returned offsets.
// The recursion is depth first, so consecutive traces share prefixes. It
// needs no road network, which is what makes the network-free extension
// possible. done (nil = uncancellable) is polled every 256 recursion steps; a
// stopped enumeration returns the traces completed so far.
//
// The constrained kNN has no index — the table holds a few dozen points, a
// node's neighbours are one scan of it — and takes points exactly equidistant
// from a node in ascending table index.
//
// All working state — the kNN slots, the successor arena, the dense memo
// tables, the traces — lives in sc and must be consumed before the scratch is
// recycled.
func enumerateTransitTraces(sc *pairScratch, rawPoints []refPoint, qiPt, qjPt geo.Point, p Params, done <-chan struct{}) []int {
	// Collapse nearby reference points: GPS noise scatters many archive
	// samples of the same road into a 2D band, and at fine resolution every
	// node's k nearest neighbors are band-mates — the transit graph would
	// never leave the band. A 100 m cell (well under the typical reference
	// sample spacing) collapses the band to single file along the roads
	// while keeping the corridor structure the recursion walks on.
	dedupPointsInto(sc, rawPoints, qiPt, qjPt)
	pts := sc.nniPts
	if len(pts) == 2 {
		return nil
	}
	const srcNode = 0
	sinkNode := len(pts) - 1 // the destination is a kNN candidate like any other
	n := len(pts)

	// Every point's distance to the destination, once per pair.
	toDest := slices.Grow(sc.toDest[:0], n)[:n]
	for i, pt := range pts {
		toDest[i] = pt.Dist(qjPt)
	}
	sc.toDest = toDest

	// successors performs the constrained kNN of Algorithm 2 lines 7–17: the
	// first K2 admissible points in (distance from node, table index) order,
	// or the destination alone if it comes up among them. Each rule tests the
	// candidate alone, so one pass in index order, nn/nnD keeping the K2
	// nearest admissible seen so far (sorted, the earlier of two equals
	// first), selects what streaming the points by distance would; the
	// destination, last in the table, comes up iff it would enter the slots.
	// The returned slice is sc.nn — valid only until the next call.
	successors := func(node int, alpha float64) []int {
		pc, dCur := pts[node], toDest[node]
		nn, nnD := sc.nn[:0], sc.nnD[:0]
		for cand := 1; cand <= sinkNode && p.K2 > 0; cand++ {
			if cand == node || toDest[cand]-alpha > dCur { // line 9: drifting away beyond the α budget
				continue
			}
			// Full slots reject by the squared hop first; the margin lies far
			// above the rounding of Dist2 and Hypot, so a candidate that passes
			// gets the exact hop, and every verdict below stays the Hypot one.
			if len(nn) == p.K2 && pc.Dist2(pts[cand]) > nnD[p.K2-1]*nnD[p.K2-1]*(1+1e-9) {
				continue
			}
			hop := pc.Dist(pts[cand])
			if hop < 1e-9 || len(nn) == p.K2 && hop >= nnD[p.K2-1] {
				continue // co-located sample: no progress; or K2 admissible points come first
			}
			if dCur > 1e-9 && (hop+toDest[cand])/dCur > p.Beta {
				continue // line 11: relative detour too long
			}
			if cand == sinkNode {
				nn = append(nn[:0], sinkNode) // lines 13–16: go straight home
				break
			}
			if len(nn) < p.K2 {
				nn, nnD = append(nn, 0), append(nnD, 0)
			}
			i := len(nn) - 1 // the freed or the farthest slot
			for ; i > 0 && nnD[i-1] > hop; i-- {
				nn[i], nnD[i] = nn[i-1], nnD[i-1]
			}
			nn[i], nnD[i] = cand, hop
		}
		// Explore the most promising hop first: the admissible set is the
		// constrained kNN of the algorithm; ordering children by remaining
		// distance lets the DFS reach the destination without exhausting
		// its budget inside dense clusters.
		slices.SortFunc(nn, func(a, b int) int { return cmp.Compare(pts[a].Dist2(qjPt), pts[b].Dist2(qjPt)) })
		sc.nn, sc.nnD = nn, nnD
		return nn
	}

	// The dense memo maps node → an (offset, length) window of succArena,
	// replacing the map[int][]int. Windows are re-sliced from the current
	// arena at every use: append may move the backing array, but it never
	// mutates already-written elements, so recorded windows stay valid across
	// growth.
	memoOff, memoLen := slices.Grow(sc.memoOff[:0], n)[:n], slices.Grow(sc.memoLen[:0], n)[:n]
	for i := range memoLen {
		memoLen[i] = -1
	}
	onPath := slices.Grow(sc.onPath[:0], n)[:n]
	clear(onPath)
	sc.memoOff, sc.memoLen, sc.onPath = memoOff, memoLen, onPath
	sc.succArena = sc.succArena[:0]

	// Depth-first enumeration with optional transit-graph sharing. The
	// step budget bounds the exploration when sharing is disabled — the
	// recursion tree of Figure 5(b) grows combinatorially, which is the
	// inefficiency the transit graph exists to fix (Figure 13b).
	steps := 0
	maxSteps := (p.MaxNNIPaths + 1) * 400
	traces, off := sc.traces[:0], append(sc.traceOff[:0], 0)
	path := append(sc.path[:0], srcNode)
	var dfs func(node int, alpha float64)
	dfs = func(node int, alpha float64) {
		steps++
		if steps > maxSteps || len(off) > p.MaxNNIPaths {
			return
		}
		if steps&255 == 0 && graphalg.Stopped(done) {
			steps = maxSteps + 1 // poison the budget: unwind the whole tree
			return
		}
		if node == sinkNode {
			traces = append(traces, path...)
			off = append(off, len(traces))
			return
		}
		// The sc.nn buffer successors() fills is clobbered by the recursive
		// calls below, so every successor list — memoized or not — is copied
		// into the arena before iteration. Without sharing, the window is
		// popped again on unwind, bounding the arena to depth×K2.
		arenaMark := int32(len(sc.succArena))
		var so, sn int32
		if p.ShareSubstructures && memoLen[node] >= 0 {
			so, sn = memoOff[node], memoLen[node]
		} else {
			s := successors(node, alpha)
			so, sn = arenaMark, int32(len(s))
			sc.succArena = append(sc.succArena, s...)
			if p.ShareSubstructures {
				memoOff[node], memoLen[node] = so, sn
			}
		}
		succ := sc.succArena[so : so+sn]
		advanced := false
		for _, next := range succ {
			if onPath[next] {
				continue
			}
			advanced = true
			// Line 20, read with the accompanying text: "if the next point
			// is indeed further [from the destination], we deduct this
			// deviation from α". The budget only shrinks — regaining it on
			// forward hops would permit unbounded oscillation.
			nextAlpha := alpha
			if drift := toDest[next] - toDest[node]; drift > 0 {
				nextAlpha -= drift
			}
			onPath[next] = true
			path = append(path, next)
			dfs(next, nextAlpha)
			path = path[:len(path)-1]
			onPath[next] = false
		}
		// Dead end: no admissible onward reference point. Rather than
		// discarding the partial trace, hop straight to the destination —
		// the resulting route follows the references as far as they lead
		// and bridges the rest, which still beats a blind shortest path.
		if !advanced && node != srcNode {
			path = append(path, sinkNode)
			dfs(sinkNode, alpha)
			path = path[:len(path)-1]
		}
		if !p.ShareSubstructures {
			sc.succArena = sc.succArena[:arenaMark]
		}
	}
	onPath[srcNode] = true
	dfs(srcNode, p.Alpha)
	sc.traces, sc.traceOff, sc.path = traces, off, path
	return off
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
		// The nearest edges do not connect (the nearest edge can be the wrong
		// direction of a one-way street): the pair gets no local route.
		return nil
	}
	return []LocalRoute{{
		Route:      route,
		Refs:       nil,
		Popularity: entropySmoothing,
	}}
}
