package core

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/graphalg"
)

// enumerateTransitTracesRTree is enumerateTransitTraces as it stood while the
// constrained kNN streamed an R-tree bulk-loaded over the pair's point table
// — copied verbatim, except that the stream is now the whole table sorted by
// distance from the node, which is the order the tree's best-first walk
// yielded — kept as the reference TestTransitTracesOracle compares the table
// scan against. Among points exactly equidistant from a node the tree's order
// was whatever its heap layout made it; the sort's, like the scan's, is the
// lower table index first.
func enumerateTransitTracesRTree(sc *pairScratch, rawPoints []refPoint, qiPt, qjPt geo.Point, p Params, done <-chan struct{}) []int {
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
	sinkNode := len(pts) - 1 // the destination participates in the kNN stream

	// Reference points plus the destination, for the kNN stream.
	byDist := make([]int, sinkNode)
	dest := qjPt

	// successors performs the constrained kNN of Algorithm 2 lines 7–17.
	// The returned slice is sc.nn — valid only until the next call.
	successors := func(node int, alpha float64) []int {
		pc := pts[node]
		dCur := pc.Dist(dest)
		nn := sc.nn[:0]
		for i := range byDist {
			byDist[i] = i + 1
		}
		slices.SortFunc(byDist, func(a, b int) int {
			return cmp.Or(cmp.Compare(pc.Dist(pts[a]), pc.Dist(pts[b])), cmp.Compare(a, b))
		})
		for _, cand := range byDist {
			if len(nn) >= p.K2 {
				break
			}
			if cand == node {
				continue
			}
			cp := pts[cand]
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
		// (slices.SortFunc is sort.Slice's algorithm, generated from the same
		// template, minus the reflection-based swapper and its allocations.)
		slices.SortFunc(nn, func(a, b int) int {
			return cmp.Compare(pts[a].Dist2(dest), pts[b].Dist2(dest))
		})
		sc.nn = nn
		return nn
	}

	// The dense memo maps node → an (offset, length) window of succArena,
	// replacing the map[int][]int. Windows are re-sliced from the current
	// arena at every use: append may move the backing array, but it never
	// mutates already-written elements, so recorded windows stay valid across
	// growth.
	n := len(pts)
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
		pc := pts[node]
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
			if drift := pts[next].Dist(dest) - pc.Dist(dest); drift > 0 {
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

// TestTransitTracesOracle: on every pair of two worlds' query mixes, with
// substructure sharing on and off, K2 from none to many and two (α, β)
// budgets, the table scan enumerates exactly the traces — same indices, same
// order — that streaming the R-tree did. No pair of these worlds has two
// points exactly equidistant from a node (the tree's order among such points
// depended on its heap layout); the hand-built table below has, and pins the
// scan's rule: lower table index first.
func TestTransitTracesOracle(t *testing.T) {
	for _, seed := range []int64{191, 7} {
		w := newWorld(t, 600, seed)
		x := w.exec()
		sc, osc := x.sc, newPairScratch()
		pairs, traces := 0, 0
		for n := 0; n < 8; {
			qc, ok := w.ds.GenQuery(6000, []float64{120, 180, 360, 600}[n%4], 15, w.cfg, w.rng)
			if !ok {
				continue
			}
			n++
			forEachPair(x, qc.Query, func(i int, pctx *pairContext) {
				pairs++
				for _, share := range []bool{true, false} {
					for _, k2 := range []int{0, 1, 4, 8} {
						for _, ab := range [][2]float64{{500, 1.5}, {150, 1.1}} {
							p := w.p
							p.ShareSubstructures, p.K2, p.Alpha, p.Beta = share, k2, ab[0], ab[1]
							off := enumerateTransitTraces(sc, pctx.points, pctx.qi.Pt, pctx.qj.Pt, p, nil)
							want := enumerateTransitTracesRTree(osc, pctx.points, pctx.qi.Pt, pctx.qj.Pt, p, nil)
							if !slices.Equal(off, want) || (off != nil && !slices.Equal(sc.traces, osc.traces)) {
								t.Fatalf("world %d query %d pair %d share=%v K2=%d α=%v β=%v:\nscan  %v %v\nrtree %v %v",
									seed, n, i, share, k2, ab[0], ab[1], off, sc.traces, want, osc.traces)
							}
							traces += max(len(off)-1, 0)
						}
					}
				}
			})
		}
		if pairs < 20 || traces < 50*pairs {
			t.Fatalf("world %d: %d traces over %d pairs — the mix no longer exercises the enumeration", seed, traces, pairs)
		}
	}

	// Table: q_i, then b and c mirrored about the line from a to the
	// destination — exactly equidistant from a and from q_{i+1} — in both
	// table orders. With K2 = 1 only the first of the two is a's successor.
	qi, qj := geo.Pt(0, 0), geo.Pt(3000, 0)
	a, b, c := geo.Pt(950, 0), geo.Pt(1450, 600), geo.Pt(1450, -600)
	if a.Dist(b) != a.Dist(c) || b.Dist2(qj) != c.Dist2(qj) {
		t.Fatal("the fixture's two points are not exactly equidistant")
	}
	p := DefaultParams()
	p.K2 = 1
	sc := newPairScratch()
	for _, order := range [][]geo.Point{{a, b, c}, {a, c, b}} {
		var raw []refPoint
		for _, pt := range order {
			raw = append(raw, refPoint{pt: pt})
		}
		off := enumerateTransitTraces(sc, raw, qi, qj, p, nil)
		if want := []int{0, 1, 2, 4}; len(off) != 2 || !slices.Equal(sc.traces, want) {
			t.Fatalf("table order %v: traces %v (offsets %v), want the one trace %v through the lower index", order, sc.traces, off, want)
		}
	}
}
