// Package core implements HRIS, the History-based Route Inference System of
// "Reducing Uncertainty of Low-Sampling-Rate Trajectories" (Zheng, Zheng,
// Xie, Zhou — ICDE 2012): given a low-sampling-rate query trajectory and an
// archive of historical trajectories, it suggests the top-K most probable
// routes.
//
// The pipeline follows §II-B.2: the query is split into consecutive point
// pairs; reference trajectories for each pair come from package hist
// (§III-A); local routes are inferred per pair with the traverse-graph
// (TGI), nearest-neighbor (NNI) or hybrid approach (§III-B); local routes
// are scored with the entropy-based popularity function and connected into
// global routes by the K-GRI dynamic program (§III-C).
package core

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Method selects the local route inference algorithm.
type Method int

// Local route inference methods (§III-B).
const (
	MethodHybrid Method = iota // density-adaptive TGI/NNI choice
	MethodTGI                  // traverse-graph based inference
	MethodNNI                  // nearest-neighbor based inference
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodTGI:
		return "tgi"
	case MethodNNI:
		return "nni"
	default:
		return "hybrid"
	}
}

// Params collects every tunable of the system. The defaults reproduce
// Table II of the paper.
type Params struct {
	Phi       float64 // reference search radius φ (m)
	SpliceEps float64 // splicing threshold e (m) of Definition 7
	// SpliceMinSimple engages spliced-reference search only when fewer
	// simple references were found (splicing is the paper's sparse-area
	// remedy, §III-A.2). 0 splices always.
	SpliceMinSimple int
	CandEps         float64 // candidate-edge distance threshold ε (m), Definition 5

	Method Method  // local inference algorithm
	Tau    float64 // hybrid density threshold τ (reference points per km²)

	Lambda int // λ-neighborhood radius in TGI
	K1     int // K of the K-shortest-path search in TGI

	K2    int     // K (fan-out) of the constrained kNN in NNI
	Alpha float64 // α detour-tolerance budget (m) in NNI
	Beta  float64 // β relative-detour cap in NNI

	K3 int // K of the K-GRI global route search

	// MaxLocalRoutes caps each pair's local route set (by popularity).
	MaxLocalRoutes int
	// MaxNNIPaths caps the number of paths enumerated from NNI's transit
	// graph per pair.
	MaxNNIPaths int

	// GraphReduction enables TGI's transitive graph reduction (§III-B.1);
	// disabling it is exercised by the Figure 11b/12b experiments.
	GraphReduction bool
	// ShareSubstructures enables NNI's common-substructure sharing
	// (§III-B.2); disabling it is exercised by the Figure 13b experiment.
	ShareSubstructures bool

	// Ablation switches (all false in the paper's system; the ablation
	// experiments in internal/eval quantify each design choice):

	// AblateEntropy drops the entropy factor of Equation 1, scoring local
	// routes by reference support alone.
	AblateEntropy bool
	// AblateTransition replaces the transition confidence of Equation 2
	// with the constant 1, so K-GRI scores ignore route continuity.
	AblateTransition bool
	// AblateTrim disables global-route end trimming.
	AblateTrim bool

	// TemporalWeighting enables the paper's future-work extension (§VI,
	// "incorporate more information ... such as the time"): only archive
	// references whose time of day falls within TimeWindow seconds of the
	// query's are used.
	TemporalWeighting bool
	// TimeWindow is the time-of-day half-window in seconds (default 4 h).
	TimeWindow float64

	// PairWorkers bounds the worker pool of InferRoutes' per-pair stage.
	// Values < 1 (the default) use runtime.GOMAXPROCS(0); 1 forces the
	// serial path. The result is identical for every setting — pairs are
	// independent and joined in order — so this is purely a latency knob.
	PairWorkers int

	// Deadline is the per-query wall-clock budget. When > 0, InferRoutes
	// derives a context.WithTimeout from the caller's context; on expiry
	// the pipeline degrades gracefully — expired pairs fall back to one
	// shortest path and the best partial answer is returned with
	// Result.Degraded set — instead of erroring (see DESIGN.md
	// "Cancellation & deadlines"). 0 (the default) adds no timeout and no
	// clock reads.
	Deadline time.Duration
}

// DefaultParams returns the Table II defaults: φ=500 m, τ=200/km², λ=4,
// k1=5, k2=4, α=500 m, β=1.5, k3=5.
func DefaultParams() Params {
	return Params{
		Phi:                500,
		SpliceEps:          200,
		SpliceMinSimple:    8,
		CandEps:            50,
		Method:             MethodHybrid,
		Tau:                200,
		Lambda:             4,
		K1:                 5,
		K2:                 4,
		Alpha:              500,
		Beta:               1.5,
		K3:                 5,
		MaxLocalRoutes:     10,
		MaxNNIPaths:        48,
		GraphReduction:     true,
		ShareSubstructures: true,
		TimeWindow:         4 * 3600,
	}
}

// LocalRoute is one inferred route between a consecutive query point pair,
// with its reference support.
type LocalRoute struct {
	Route roadnet.Route
	// Refs is C_i(R): the ids of archive trajectories whose references
	// travel this route (union over the route's segments), sorted
	// ascending. The sorted-slice representation makes the transition
	// confidence of Equation 2 a linear merge (jaccardConf) instead of
	// per-element map probes.
	Refs []int32
	// Popularity is f(R), Equation 1.
	Popularity float64
}

// GlobalRoute is a route for the whole query with its score s(R).
type GlobalRoute struct {
	Route roadnet.Route
	Score float64
	// Parts indexes the chosen local route in each pair's local route set.
	Parts []int
}

// pairContext is everything the local inference algorithms need for one
// consecutive query pair ⟨q_i, q_{i+1}⟩. The reference support C_i(r) is
// held densely: the pair's distinct archive trajectory ids are interned
// into the sorted ids slice, and each traverse edge owns a bitset over
// those dense indices inside the scratch arena (Definition 9's
// candidate-edge relation, without one map per edge). Because ids is
// sorted, iterating a bitset in word/bit order yields ids in ascending
// order — exactly what the map-based representation produced after
// sorting, so every downstream score is bit-identical.
type pairContext struct {
	pair   int // pair index within the query, for stage timings
	qi, qj traj.GPSPoint
	sc     *pairScratch
	ids    []int32    // sorted distinct archive trajectory ids of this pair
	words  int        // bitset words per edge: (len(ids)+63)/64
	points []refPoint // all reference points P_i
	box    geo.BBox   // MBR(P_i), accumulated as points are appended
}

// refPoint is one reference point with the identity of the archive sample it
// is: row k of the pair's match table sc.tabs[tab], which NNI reads the
// point's candidate edges from (the network-free extension, which has no
// tables, leaves it zero). The identity is two integers and not a *trajMatch
// on purpose: a pair lists hundreds of these, and the list is what a pooled
// arena's footprint is made of.
type refPoint struct {
	pt geo.Point
	sampleID
}

type sampleID struct{ tab, k int32 }

// idIndex returns id's dense index — its rank in the sorted ids slice.
// Callers only look up ids collected by buildPairContext, so the search
// always hits.
func (ctx *pairContext) idIndex(id int32) int32 {
	lo, hi := 0, len(ctx.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ctx.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// touchEdge returns edge e's reference bitset, creating a zeroed slot on
// first touch.
func (ctx *pairContext) touchEdge(e roadnet.EdgeID) []uint64 {
	sc := ctx.sc
	if sc.edgeVer[e] == sc.ever {
		k := int(sc.edgeSlot[e])
		return sc.bits[k*ctx.words : (k+1)*ctx.words]
	}
	k := len(sc.edges)
	sc.edgeVer[e] = sc.ever
	sc.edgeSlot[e] = int32(k)
	sc.edges = append(sc.edges, e)
	for i := 0; i < ctx.words; i++ {
		sc.bits = append(sc.bits, 0)
	}
	return sc.bits[k*ctx.words : (k+1)*ctx.words]
}

// edgeBits returns edge e's reference bitset, nil when no reference
// supports e this pair.
func (ctx *pairContext) edgeBits(e roadnet.EdgeID) []uint64 {
	sc := ctx.sc
	if int(e) < 0 || int(e) >= len(sc.edgeVer) || sc.edgeVer[e] != sc.ever {
		return nil
	}
	k := int(sc.edgeSlot[e])
	return sc.bits[k*ctx.words : (k+1)*ctx.words]
}

// refIDs materializes a reference bitset as a freshly allocated sorted id
// slice — the form LocalRoute.Refs publishes past the pair boundary.
func (ctx *pairContext) refIDs(set []uint64) []int32 {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]int32, 0, n)
	for wi, w := range set {
		for w != 0 {
			out = append(out, ctx.ids[wi*64+bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
	return out
}

// buildPairContext assembles the dense traverse-edge support and the
// reference-point list inside the exec's scratch arena.
func (x exec) buildPairContext(pair int, qi, qj traj.GPSPoint, refs []hist.Reference) *pairContext {
	sc := x.sc
	ctx := &sc.pctx
	*ctx = pairContext{pair: pair, qi: qi, qj: qj, sc: sc}
	sc.beginPair(x.eng.g.NumSegments())

	// Pass 1: intern every source trajectory id of the pair. Collecting a
	// superset (refs the deadline later truncates) is harmless — unset bits
	// contribute nothing to any count.
	idBuf, npoints := sc.idBuf[:0], 0
	for _, r := range refs {
		npoints += int(r.LenA + r.LenB)
		idBuf = append(idBuf, r.SourceA)
		if r.SourceB >= 0 {
			idBuf = append(idBuf, r.SourceB)
		}
	}
	slices.Sort(idBuf)
	sc.idBuf = idBuf
	ids := sc.ids[:0]
	for i, id := range idBuf {
		if i == 0 || id != idBuf[i-1] {
			ids = append(ids, id)
		}
	}
	sc.ids = ids
	ctx.ids = ids
	ctx.words = (len(ids) + 63) / 64

	// Pass 2: set each reference's bits on the candidate edges its points
	// support. Archive points are map-matched (§II-B.1), which makes the
	// support direction-aware: a candidate edge only counts as traversed
	// when it agrees with the reference's travel heading at the point.
	// Between two samples of one trajectory that verdict is read off the
	// trajectory's match table; only a spliced reference's junction, whose
	// heading p_a→p_b is chosen per query, is tested here. A single-point
	// reference has no heading and supports every candidate.
	g, tables, tabs := x.eng.g, x.eng.match, sc.tabs[:0]
	// Sized up front: an arena fresh from the pool (GC cycles empty it) then
	// costs one allocation, not a growth series.
	points, box := slices.Grow(sc.points[:0], npoints), geo.EmptyBBox()
	for _, r := range refs {
		// Checkpoint per reference: a truncated context is acceptable —
		// the caller re-checks expiry and degrades the whole pair.
		if x.expired() {
			break
		}
		srcIdx := sc.srcIdx[:0]
		srcIdx = append(srcIdx, ctx.idIndex(r.SourceA))
		ta := tables.get(x.snap.Traj(int(r.SourceA)), x.p.CandEps)
		tb, ia := ta, int32(len(tabs))
		tabs = append(tabs, ta)
		if r.SourceB >= 0 {
			srcIdx = append(srcIdx, ctx.idIndex(r.SourceB))
			tb = tables.get(x.snap.Traj(int(r.SourceB)), x.p.CandEps)
			tabs = append(tabs, tb)
		}
		sc.srcIdx = srcIdx
		// Read in place, at the positions the match tables are indexed by.
		runA, runB := r.Runs(x.snap)
		lenA, n := len(runA), len(runA)+len(runB)
		var junction float64
		if lenA < n {
			junction = runA[lenA-1].Pt.Heading(runB[0].Pt)
		}
		for j := 0; j < n; j++ {
			t, it, k, pt := ta, ia, int(r.OffA)+j, geo.Point{}
			if j < lenA {
				pt = runA[j].Pt
			} else {
				t, it, k, pt = tb, ia+1, int(r.OffB)+j-lenA, runB[j-lenA].Pt
			}
			points = append(points, refPoint{pt, sampleID{it, int32(k)}})
			box = box.ExtendPoint(pt)
			// The heading at j runs between points next-1 and next: toward
			// the next sample, or from the previous one at the tail.
			mask, atJunction := int32(matchDep), false
			switch next := min(j+1, n-1); {
			case n == 1:
				mask = matchAny
			case next == lenA:
				atJunction = true
			case next == j:
				mask = matchArr
			}
			for _, c := range t.cands[t.off[k]:t.off[k+1]] {
				e := roadnet.EdgeID(c >> matchBits)
				if atJunction {
					if geo.AngleDiff(g.SegHeading(e), junction) > maxHeadingDiff {
						continue
					}
				} else if c&mask == 0 {
					continue
				}
				set := ctx.touchEdge(e)
				for _, di := range srcIdx {
					set[di>>6] |= 1 << (di & 63)
				}
			}
		}
	}
	sc.points, sc.tabs = points, tabs
	ctx.points = points
	ctx.box = box
	return ctx
}

// density returns the reference point density in points per km²
// (|P_i| / area(MBR(P_i)), §III-B.3).
func (ctx *pairContext) density() float64 {
	if len(ctx.points) == 0 {
		return 0
	}
	areaKm2 := ctx.box.Area() / 1e6
	if areaKm2 < 1e-6 {
		return math.Inf(1) // all points coincide: infinitely dense
	}
	return float64(len(ctx.points)) / areaKm2
}
