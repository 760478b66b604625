package core

import (
	"cmp"
	"slices"

	"repro/internal/roadnet"
)

// cmpPartial orders partials by descending score, breaking ties by the
// lexicographic order of the chosen local-route indices so the result is
// deterministic and independent of K (equal-scored routes are common when
// fallback pairs contribute constant factors). Partials with distinct parts
// never compare equal, so sorting a posterior by it has one outcome whatever
// the algorithm.
func cmpPartial(a, b partial) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	return slices.Compare(a.parts, b.parts)
}

// partial is a partial global route during the K-GRI dynamic program: the
// chosen local route index per processed pair and the accumulated score.
type partial struct {
	parts []int
	score float64
}

// kgriCand identifies a DP candidate by parent partial plus score; the
// buffer holding them is pooled (kgriPool in scratch.go).
type kgriCand struct {
	pj, pi int
	score  float64
}

// KGRI runs the top-K Global Route Inference dynamic program (Algorithm 3)
// over the per-pair local route sets. The matrix entry M[i][j] keeps the K
// highest-scoring partial routes ending with local route j of pair i; the
// downward-closure property makes the recursion exact. Complexity is
// O(K·n·m²) against the brute force's O(mⁿ).
//
// The DP is a loop over the incremental primitives below — kgriInit seeds
// the posterior from pair 0, kgriStep extends it one column, kgriFinalize
// ranks and materializes — the same primitives Session.commit and
// Session.finish drive for every inference.
func KGRI(g *roadnet.Graph, locals [][]LocalRoute, k int) []GlobalRoute {
	if len(locals) == 0 || k <= 0 {
		return nil
	}
	for _, set := range locals {
		if len(set) == 0 {
			return nil // a pair with no local routes breaks every chain
		}
	}
	M := kgriInit(locals[0])
	ks := kgriPool.Get().(*kgriScratch)
	defer kgriPool.Put(ks)
	for i := 1; i < len(locals); i++ {
		M = kgriStep(M, locals[i-1], locals[i], k, false, ks)
	}
	return kgriFinalize(g, locals, M, k)
}

// kgriInit seeds the K-GRI posterior from the first pair's local routes:
// M[j] holds the single partial that chose local route j.
func kgriInit(locals []LocalRoute) [][]partial {
	M := make([][]partial, len(locals))
	for j, lr := range locals {
		M[j] = []partial{{parts: []int{j}, score: lr.Popularity}}
	}
	return M
}

// kgriStep extends the posterior by one DP column: from M over prev (the
// previous pair's local routes) to the returned matrix over cur. ks provides
// the pooled candidate buffer; its content is truncated and fully rewritten
// before every read, so any *kgriScratch (shared or fresh) yields the same
// output.
func kgriStep(M [][]partial, prev, cur []LocalRoute, k int, constantTransition bool, ks *kgriScratch) [][]partial {
	// kgriCand defers the parts copy: the DP generates m·K candidates per
	// local route but keeps only K, and a candidate is fully identified by
	// its parent partial plus the current index, so only survivors
	// materialize.
	cands := ks.cands[:0]
	next := make([][]partial, len(cur))
	for j, lr := range cur {
		cands = cands[:0]
		for pj := range prev {
			gConf := 1.0
			if !constantTransition {
				// LocalRoute.Refs is sorted, so the Jaccard transition
				// factor runs as a linear merge — same inter/union
				// integers as the old map intersection, bit-identical
				// scores.
				gConf = jaccardConf(prev[pj].Refs, cur[j].Refs)
			}
			for pi, p := range M[pj] {
				cands = append(cands, kgriCand{pj: pj, pi: pi, score: p.score * gConf * lr.Popularity})
			}
		}
		// Same order as cmpPartial over the materialized partials: all
		// candidates here share the final index j, and parent parts all
		// have the same length, so comparing parents settles every tie.
		// Parts are unique per partial, making the order total — an
		// unstable sort has nothing to be unstable about.
		slices.SortFunc(cands, func(ca, cb kgriCand) int {
			if ca.score != cb.score {
				return cmp.Compare(cb.score, ca.score)
			}
			return slices.Compare(M[ca.pj][ca.pi].parts, M[cb.pj][cb.pi].parts)
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		out := make([]partial, len(cands))
		for t, c := range cands {
			pp := M[c.pj][c.pi].parts
			parts := make([]int, len(pp)+1)
			copy(parts, pp)
			parts[len(pp)] = j
			out[t] = partial{parts: parts, score: c.score}
		}
		next[j] = out
	}
	ks.cands = cands
	return next
}

// kgriFinalize ranks the accumulated posterior and materializes the top-K
// global routes.
func kgriFinalize(g *roadnet.Graph, locals [][]LocalRoute, M [][]partial, k int) []GlobalRoute {
	return materialize(g, locals, kgriRank(M, k))
}

// kgriRank flattens the posterior and keeps its top k partials, best first.
func kgriRank(M [][]partial, k int) []partial {
	var all []partial
	for _, ps := range M {
		all = append(all, ps...)
	}
	slices.SortFunc(all, cmpPartial)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// greedyFinish completes an interrupted K-GRI run cheaply: the single best
// partial accumulated so far (covering pairs [0, next)) is extended with
// each remaining pair's most popular local route — index 0, since
// capLocalRoutes orders by popularity descending — multiplying in its
// popularity but skipping the transition factor, whose Refs intersections
// are exactly the work being cut short. One best-effort route beats none.
func greedyFinish(g *roadnet.Graph, locals [][]LocalRoute, M [][]partial, next int) []GlobalRoute {
	best := bestPartial(M)
	if best == nil {
		return nil
	}
	p := partial{parts: append([]int(nil), best.parts...), score: best.score}
	for i := next; i < len(locals); i++ {
		p.parts = append(p.parts, 0)
		p.score *= locals[i][0].Popularity
	}
	return materialize(g, locals, []partial{p})
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
	var all []partial
	parts := make([]int, n)
	var walk func(i int, score float64)
	walk = func(i int, score float64) {
		if i == n {
			all = append(all, partial{parts: append([]int(nil), parts...), score: score})
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
	slices.SortFunc(all, cmpPartial)
	if len(all) > k {
		all = all[:k]
	}
	return materialize(g, locals, all)
}

// materialize concatenates each partial's local routes (the ◇ operator,
// bridging candidate-edge gaps with shortest paths as §III-C.1 prescribes)
// into physical global routes.
func materialize(g *roadnet.Graph, locals [][]LocalRoute, ps []partial) []GlobalRoute {
	out := make([]GlobalRoute, 0, len(ps))
	for _, p := range ps {
		var route roadnet.Route
		ok := true
		for i, j := range p.parts {
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
		out = append(out, GlobalRoute{Route: route, Score: p.score, Parts: p.parts})
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
