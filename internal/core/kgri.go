package core

import (
	"cmp"
	"slices"

	"repro/internal/roadnet"
)

// node is one K-GRI partial route as a Viterbi node: its accumulated score,
// the local route j it ends with, and its parent's index in the previous
// column (-1 in column 0). A partial's local-route indices are its
// back-pointer chain read forwards; nothing stores them as a prefix.
type node struct {
	score  float64
	parent int32
	j      int32
}

// posterior is the K-GRI dynamic program (Algorithm 3) as a k-best Viterbi
// with back-pointers: one column per absorbed pair, each column grouped by
// j, and within group j the M[i][j] entry — the k highest-scoring partials
// ending with local route j — best first. The downward-closure property
// makes the recursion exact. KGRI, the streaming Session and network-free
// inference drive this one type. It is single-goroutine state: it owns its
// candidate and walk buffers.
type posterior struct {
	k                  int
	constantTransition bool
	cols               [][]node
	prev               []LocalRoute // the last column's local routes
	cands              []node
	set                []int32
}

// newPosterior returns an empty posterior keeping the top k partials per
// local route. k ≤ 0 asks for no routes: columns past the first are empty
// and rank returns none.
func newPosterior(k int, constantTransition bool) *posterior {
	return &posterior{k: max(k, 0), constantTransition: constantTransition}
}

// cmpNodes orders two nodes of column c (or candidates for it) by
// descending score, then by the lexicographic order of their local-route
// indices, so the result is deterministic and independent of K
// (equal-scored routes are common when fallback pairs contribute constant
// factors). The chains agree before the column where they meet, so the j
// one column after the meet decides; distinct nodes with one parent differ
// in j, so distinct nodes never compare equal and sorting by this order has
// one outcome whatever the algorithm. The walk is bounded by the unfirm lag.
func (po *posterior) cmpNodes(c int, a, b node) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	for a.parent != b.parent {
		c--
		a, b = po.cols[c][a.parent], po.cols[c][b.parent]
	}
	return cmp.Compare(a.j, b.j)
}

// push absorbs the next pair's local routes as one DP column. The first
// column holds one node per local route; every later node extends a parent
// by one local route j, scored parent · g(transition) · popularity.
func (po *posterior) push(cur []LocalRoute) {
	c := len(po.cols)
	if c == 0 {
		col := make([]node, len(cur))
		for j, lr := range cur {
			col[j] = node{score: lr.Popularity, parent: -1, j: int32(j)}
		}
		po.cols, po.prev = append(po.cols, col), cur
		return
	}
	last := po.cols[c-1]
	keep := min(po.k, len(last))
	col := make([]node, 0, len(cur)*keep)
	for j, lr := range cur {
		cands := po.cands[:0]
		gConf := 1.0
		for pi, p := range last {
			// The transition factor depends on the parent's j only, and
			// the column is grouped by j: one Jaccard merge per group.
			if !po.constantTransition && (pi == 0 || p.j != last[pi-1].j) {
				gConf = jaccardConf(po.prev[p.j].Refs, lr.Refs)
			}
			cands = append(cands, node{score: p.score * gConf * lr.Popularity, parent: int32(pi), j: int32(j)})
		}
		slices.SortFunc(cands, func(a, b node) int { return po.cmpNodes(c, a, b) })
		col = append(col, cands[:keep]...)
		po.cands = cands
	}
	po.cols, po.prev = append(po.cols, col), cur
}

// best returns the index of the last column's winner under cmpNodes, or
// false when the column is empty (k = 0).
func (po *posterior) best() (int32, bool) {
	c := len(po.cols) - 1
	last, b := po.cols[c], int32(0)
	if len(last) == 0 {
		return 0, false
	}
	for i := range last {
		if po.cmpNodes(c, last[i], last[b]) < 0 {
			b = int32(i)
		}
	}
	return b, true
}

// path writes the last n local-route indices of the last column's node i
// into dst (grown as needed), walking n back-pointers.
func (po *posterior) path(dst []int, i int32, n int) []int {
	dst = slices.Grow(dst[:0], n)[:n]
	c := len(po.cols) - 1
	for t := n - 1; t >= 0; t-- {
		nd := po.cols[c][i]
		dst[t], i, c = int(nd.j), nd.parent, c-1
	}
	return dst
}

// rank returns the posterior's top k partials, best first, as unmaterialized
// global routes (Parts and Score).
func (po *posterior) rank() []GlobalRoute {
	c := len(po.cols) - 1
	last := po.cols[c]
	idx := make([]int32, len(last))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return po.cmpNodes(c, last[a], last[b]) })
	out := make([]GlobalRoute, min(po.k, len(idx)))
	for t := range out {
		out[t] = GlobalRoute{Parts: po.path(nil, idx[t], c+1), Score: last[idx[t]].score}
	}
	return out
}

// firm is the number of leading pairs every live partial agrees on: the
// last column's nodes are mapped to their parents, one column at a time,
// until one node is left — the online Viterbi's convergence point. The DP
// only extends partials, so it never moves back.
func (po *posterior) firm() int {
	c := len(po.cols) - 1
	set := po.set[:0]
	for i := range po.cols[c] {
		set = append(set, int32(i))
	}
	for ; len(set) > 1 && c > 0; c-- {
		for t, i := range set {
			set[t] = po.cols[c][i].parent
		}
		slices.Sort(set)
		set = slices.Compact(set)
	}
	po.set = set
	if len(set) != 1 {
		return 0
	}
	return c + 1
}

// KGRI runs the top-K Global Route Inference dynamic program (Algorithm 3)
// over the per-pair local route sets: one posterior column per pair, then
// the top k partials materialized. Complexity is O(K·n·m²) against the
// brute force's O(mⁿ).
func KGRI(g *roadnet.Graph, locals [][]LocalRoute, k int) []GlobalRoute {
	if len(locals) == 0 || k <= 0 {
		return nil
	}
	for _, set := range locals {
		if len(set) == 0 {
			return nil // a pair with no local routes breaks every chain
		}
	}
	po := newPosterior(k, false)
	for _, set := range locals {
		po.push(set)
	}
	return materialize(g, locals, po.rank())
}

// greedyFinish completes an interrupted K-GRI run cheaply: the single best
// partial accumulated so far (covering the posterior's columns) is extended
// with each remaining pair's most popular local route — index 0, since
// capLocalRoutes orders by popularity descending — multiplying in its
// popularity but skipping the transition factor, whose Refs intersections
// are exactly the work being cut short. One best-effort route beats none.
func greedyFinish(g *roadnet.Graph, locals [][]LocalRoute, po *posterior) []GlobalRoute {
	best, ok := po.best()
	if !ok {
		return nil
	}
	c := len(po.cols)
	r := GlobalRoute{Parts: po.path(nil, best, c), Score: po.cols[c-1][best].score}
	for i := c; i < len(locals); i++ {
		r.Parts = append(r.Parts, 0)
		r.Score *= locals[i][0].Popularity
	}
	return materialize(g, locals, []GlobalRoute{r})
}

// BruteForceGlobalRoutes enumerates every combination of local routes and
// returns the top-K by score — the baseline of the Figure 14b experiment
// and the correctness oracle for KGRI.
func BruteForceGlobalRoutes(g *roadnet.Graph, locals [][]LocalRoute, k int) []GlobalRoute {
	n := len(locals)
	if n == 0 || k <= 0 {
		return nil
	}
	for _, set := range locals {
		if len(set) == 0 {
			return nil
		}
	}
	var all []GlobalRoute
	parts := make([]int, n)
	var walk func(i int, score float64)
	walk = func(i int, score float64) {
		if i == n {
			all = append(all, GlobalRoute{Parts: append([]int(nil), parts...), Score: score})
			return
		}
		for j, lr := range locals[i] {
			s := score * lr.Popularity
			if i > 0 {
				s *= jaccardConf(locals[i-1][parts[i-1]].Refs, lr.Refs)
			}
			parts[i] = j
			walk(i+1, s)
		}
	}
	walk(0, 1)
	// The full-parts form of the posterior's order (cmpNodes).
	slices.SortFunc(all, func(a, b GlobalRoute) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return slices.Compare(a.Parts, b.Parts)
	})
	if len(all) > k {
		all = all[:k]
	}
	return materialize(g, locals, all)
}

// materialize concatenates each ranked route's local routes (the ◇
// operator, bridging candidate-edge gaps with shortest paths as §III-C.1
// prescribes) into physical global routes, dropping any that cannot join.
func materialize(g *roadnet.Graph, locals [][]LocalRoute, rs []GlobalRoute) []GlobalRoute {
	out := make([]GlobalRoute, 0, len(rs))
	for _, r := range rs {
		var route roadnet.Route
		ok := true
		for i, j := range r.Parts {
			joined, jok := mergeRoutes(g, route, locals[i][j].Route)
			if !jok {
				ok = false
				break
			}
			route = joined
		}
		if !ok || len(route) == 0 {
			continue
		}
		r.Route = route
		out = append(out, r)
	}
	return out
}

// mergeRoutes joins consecutive local routes. Adjacent pairs overlap around
// the shared query point — local route i runs up to a candidate edge of
// q_{i+1} and local route i+1 starts at one — so we first look for a shared
// segment near a's tail and b's head and splice there, avoiding the
// backtracking a blind shortest-path bridge between different candidate
// edges of the same point would introduce. Without an overlap we fall back
// to Route.Concat's shortest-path bridge.
func mergeRoutes(g *roadnet.Graph, a, b roadnet.Route) (roadnet.Route, bool) {
	if len(a) == 0 {
		return b, true
	}
	if len(b) == 0 {
		return a, true
	}
	const window = 8
	loA := len(a) - window
	if loA < 0 {
		loA = 0
	}
	hiB := window
	if hiB > len(b) {
		hiB = len(b)
	}
	for i := len(a) - 1; i >= loA; i-- {
		for j := 0; j < hiB; j++ {
			if a[i] == b[j] {
				merged := append(append(roadnet.Route{}, a[:i]...), b[j:]...)
				return merged.Dedup(), true
			}
		}
	}
	return a.Concat(g, b)
}
