package core

import (
	"math"
	"math/bits"

	"repro/internal/roadnet"
)

// entropySmoothing is added to the entropy term of Equation 1 so that
// single-segment local routes (whose reference distribution has zero
// entropy by definition) still rank by their reference support instead of
// all collapsing to f(R)=0, which would zero out every global score they
// participate in. The value is small enough that the entropy term dominates
// whenever it is nonzero.
const entropySmoothing = 0.01

// popularity computes f(R) of Equation 1 for a route against the pair's
// dense per-edge reference bitsets:
//
//	f(R) = |∪_{r∈R} C_i(r)| · H(R)
//
// with x(r) = |C_i(r)| / Σ_{r∈R} |C_i(r)| and the entropy term
// H = Σ −x·log x normalized by its maximum log |R|. The paper motivates
// the entropy factor as "naturally reflect[ing] the uniformness of a
// probability distribution" (Figure 6's stable R_a versus bursty R_b);
// the raw sum, however, also grows as log n with the number of route
// segments, which would make every longer alternative outrank shorter
// ones regardless of support. Normalizing isolates the uniformness signal
// the paper argues for — a documented deviation from the formula as
// printed (see DESIGN.md).
//
// Per-edge counts are popcounts and the union a word-wise OR into a
// scratch bitset; both produce the same integers the map representation
// did, so every score is bit-identical. The returned id slice is freshly
// allocated (sorted ascending) — it outlives the pair, the scratch does
// not.
func popularity(route roadnet.Route, pctx *pairContext) (float64, []int32) {
	sc := pctx.sc
	union := sc.union[:0]
	for i := 0; i < pctx.words; i++ {
		union = append(union, 0)
	}
	counts := sc.counts[:0]
	var total float64
	for _, e := range route {
		c := 0
		if set := pctx.edgeBits(e); set != nil {
			for wi, w := range set {
				c += bits.OnesCount64(w)
				union[wi] |= w
			}
		}
		counts = append(counts, float64(c))
		total += float64(c)
	}
	sc.union, sc.counts = union, counts
	un := 0
	for _, w := range union {
		un += bits.OnesCount64(w)
	}
	if un == 0 || total == 0 {
		return 0, nil
	}
	var entropy float64
	for _, c := range counts {
		if c == 0 {
			continue // lim x→0 of −x·log x is 0
		}
		x := c / total
		entropy += -x * math.Log(x)
	}
	if n := len(route); n > 1 {
		entropy /= math.Log(float64(n))
	}
	return float64(un) * (entropy + entropySmoothing), pctx.refIDs(union)
}

// jaccardConf computes g(R_a, R_b) of Equation 2 — the Jaccard similarity
// of the two routes' reference sets mapped through exp(·−1), so identical
// support gives 1 and disjoint support gives 1/e — over the sorted id
// slices LocalRoute.Refs carries: a linear merge counts the intersection
// instead of per-element map probes.
func jaccardConf(a, b []int32) float64 {
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return math.Exp(-1)
	}
	return math.Exp(float64(inter)/float64(union) - 1)
}

// scoreRoute applies Equation 1 or, under the AblateEntropy ablation, the
// bare reference-support count.
func (x exec) scoreRoute(route roadnet.Route, pctx *pairContext) (float64, []int32) {
	pop, refs := popularity(route, pctx)
	if x.p.AblateEntropy {
		return float64(len(refs)), refs
	}
	return pop, refs
}
