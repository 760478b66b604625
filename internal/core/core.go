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
	pair    int // pair index within the query, for stage timings
	qi, qj  traj.GPSPoint
	sc      *pairScratch
	ids     []int32 // sorted distinct archive trajectory ids of this pair
	words   int     // bitset words per edge: (len(ids)+63)/64
	npoints int     // |P_i|: the references' points, counted per reference
	// points lists the archive samples of P_i, each at least once, in order
	// of first appearance. Spliced references share runs — one T_a is cut
	// once per partner — so it is far shorter than npoints on a splice-heavy
	// pair.
	points []refPoint
	box    geo.BBox // MBR(P_i), accumulated as points are appended
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
// Callers only look up ids collected by buildPairContext, which wrote the
// table entry of every one of them.
func (ctx *pairContext) idIndex(id int32) int32 { return ctx.sc.idDense[id] }

// slotOf returns edge e's slot in the bitset arena, creating it zeroed on
// first touch.
func (ctx *pairContext) slotOf(e roadnet.EdgeID) int32 {
	sc := ctx.sc
	if sc.edgeVer[e] == sc.ever {
		return sc.edgeSlot[e]
	}
	k := int32(len(sc.edges))
	sc.edgeVer[e] = sc.ever
	sc.edgeSlot[e] = k
	sc.edges = append(sc.edges, e)
	sc.slotRun = append(sc.slotRun, -1)
	for i := 0; i < ctx.words; i++ {
		sc.bits = append(sc.bits, 0)
	}
	return k
}

// setBit adds dense id di to the bitset of edge slot k.
func (ctx *pairContext) setBit(k, di int32) {
	ctx.sc.bits[int(k)*ctx.words+int(di>>6)] |= 1 << (di & 63)
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

// idSlot is what a pair resolves once per distinct trajectory (dense index):
// its match table, an index into sc.tabs (-1 until first needed), and the
// runs it opens as a spliced reference's T_a and closes as a T_b (-1: none).
type idSlot struct{ tab, runA, runB int32 }

// spliceRun is one distinct run of the pair's spliced references. Definition
// 7 cuts each T_a at a partner-dependent row but always from nn(q_i, T_a) on
// (OffA), and each T_b from a partner-dependent row up to nn(q_{i+1}, T_b);
// so the A parts of one T_a are prefixes of one run read forward from OffA,
// and the B parts of one T_b prefixes of one run read backward from its last
// row. A run lists the distinct traverse edges its rows support, as arena
// slots, in row order, with a count per row prefix: a reference ORs one bit
// over a prefix instead of re-walking the rows point by point.
type spliceRun struct {
	di     int32 // dense index of the run's trajectory
	row    int32 // first row read: OffA, or a T_b's last row
	back   bool  // a T_b run, read backward
	maxLen int32 // the longest part of it a reference takes
	seen   int32 // how many of its points (from row on) are in the point list
	edges  int32 // its edge slots are sc.runEdges[edges:]…
	pre    int32 // …of which the first i rows list sc.runPre[pre+i]
}

// spliceShaped reports whether r has the shape the per-run assembly handles:
// a spliced reference with a non-empty part on each side.
func spliceShaped(r hist.Reference) bool { return r.Spliced && r.LenA > 0 && r.LenB > 0 }

// buildPairContext assembles the dense traverse-edge support and the
// reference-point list inside the exec's scratch arena.
//
// Archive points are map-matched (§II-B.1), which makes the support
// direction-aware: a candidate edge only counts as traversed when it agrees
// with the reference's travel heading at the point — toward the next sample,
// or from the previous one at the tail. Between two samples of one trajectory
// that verdict is read off the trajectory's match table; only a spliced
// reference's junction, whose heading p_a→p_b is chosen per query, is tested
// here. A single-point reference has no heading and supports every
// candidate.
//
// Spliced references are assembled per distinct run (see spliceRun); the
// rest, and any reference whose run conflicts with an earlier one of the
// same trajectory, point by point. Both give every edge the same support.
func (x exec) buildPairContext(pair int, qi, qj traj.GPSPoint, refs []hist.Reference) *pairContext {
	sc := x.sc
	ctx := &sc.pctx
	*ctx = pairContext{pair: pair, qi: qi, qj: qj, sc: sc, box: geo.EmptyBBox()}
	sc.beginPair(x.eng.g.NumSegments())
	sc.bridges.Reset(x.eng.g)

	// Intern every source trajectory id of the pair: the set reads back the
	// distinct ids ascending, and the table maps each to its dense index.
	// Collecting a superset (refs the deadline later truncates) is harmless
	// — unset bits contribute nothing to any count.
	n := x.snap.NumTrajs()
	sc.idSet.reserve(n)
	if len(sc.idDense) < n {
		sc.idDense = make([]int32, n)
	}
	for _, r := range refs {
		sc.idSet.add(r.SourceA)
		if r.SourceB >= 0 {
			sc.idSet.add(r.SourceB)
		}
	}
	ids := sc.idSet.drain(sc.ids[:0])
	for i, id := range ids {
		sc.idDense[id] = int32(i)
	}
	sc.ids = ids
	ctx.ids = ids
	ctx.words = (len(ids) + 63) / 64
	slots := slices.Grow(sc.idSlots[:0], len(ids))[:len(ids)]
	for i := range slots {
		slots[i] = idSlot{-1, -1, -1}
	}
	sc.idSlots, sc.tabs, sc.runs = slots, sc.tabs[:0], sc.runs[:0]

	// Claim each spliced reference's two runs: the first reference of a
	// trajectory sets where its run starts, and one that disagrees goes
	// point by point. Count the samples to list on the way.
	npoints := 0
	for _, r := range refs {
		if spliceShaped(r) {
			da, db := ctx.idIndex(r.SourceA), ctx.idIndex(r.SourceB)
			ra := sc.claimRun(&slots[da].runA, da, r.OffA, false)
			rb := sc.claimRun(&slots[db].runB, db, r.OffB+r.LenB-1, true)
			if ra >= 0 && rb >= 0 {
				sc.runs[ra].maxLen = max(sc.runs[ra].maxLen, r.LenA)
				sc.runs[rb].maxLen = max(sc.runs[rb].maxLen, r.LenB)
				continue
			}
		}
		npoints += int(r.LenA + r.LenB)
	}
	for _, run := range sc.runs {
		npoints += int(run.maxLen)
	}
	// Sized up front: an arena fresh from the pool (GC cycles empty it) then
	// costs one allocation, not a growth series.
	sc.points = slices.Grow(sc.points[:0], npoints)
	sc.runEdges, sc.runPre = sc.runEdges[:0], sc.runPre[:0]
	for i := range sc.runs {
		if x.expired() {
			return ctx // truncated: the caller re-checks expiry and degrades the pair
		}
		x.listRun(ctx, int32(i))
	}

	for _, r := range refs {
		// Checkpoint per reference: a truncated context is acceptable —
		// the caller re-checks expiry and degrades the whole pair.
		if x.expired() {
			break
		}
		ctx.npoints += int(r.LenA + r.LenB)
		if spliceShaped(r) {
			ra, rb := slots[ctx.idIndex(r.SourceA)].runA, slots[ctx.idIndex(r.SourceB)].runB
			if ra >= 0 && rb >= 0 && sc.runs[ra].row == r.OffA && sc.runs[rb].row == r.OffB+r.LenB-1 {
				x.addSpliced(ctx, r, &sc.runs[ra], &sc.runs[rb])
				continue
			}
		}
		x.addPerPoint(ctx, r)
	}
	ctx.points = sc.points
	return ctx
}

// claimRun returns the index of the run *slot names, opening one at row if
// there is none; -1 when the trajectory's run already starts elsewhere.
func (sc *pairScratch) claimRun(slot *int32, di, row int32, back bool) int32 {
	if *slot < 0 {
		*slot = int32(len(sc.runs))
		sc.runs = append(sc.runs, spliceRun{di: di, row: row, back: back})
	}
	if sc.runs[*slot].row != row {
		return -1
	}
	return *slot
}

// table returns dense id di's match table and its index in sc.tabs,
// resolving it on the pair's first need.
func (x exec) table(di int32) (*trajMatch, int32) {
	sc := x.sc
	s := &sc.idSlots[di]
	if s.tab < 0 {
		s.tab = int32(len(sc.tabs))
		sc.tabs = append(sc.tabs, x.eng.match.get(x.snap.Traj(int(sc.ids[di])), x.p.CandEps))
	}
	return sc.tabs[s.tab], s.tab
}

// listRun builds run i's edge list over the rows its longest reference part
// needs: every row of a T_a part but the junction row, departure-masked; for
// a T_b part of two or more rows, the last row arrival-masked and the rows
// before it departure-masked (a one-row T_b part is a junction row). The
// run's own trajectory supports every listed edge, so its bit is set here,
// once.
func (x exec) listRun(ctx *pairContext, i int32) {
	sc := x.sc
	run := &sc.runs[i]
	t, _ := x.table(run.di)
	rows, step := run.maxLen-1, int32(1)
	if run.back {
		rows, step = run.maxLen, -1
		if rows < 2 {
			rows = 0
		}
	}
	run.edges, run.pre = int32(len(sc.runEdges)), int32(len(sc.runPre))
	sc.runPre = append(sc.runPre, 0)
	for j := int32(0); j < rows; j++ {
		k, mask := run.row+j*step, int32(matchDep)
		if run.back && j == 0 {
			mask = matchArr
		}
		for _, c := range t.cands[t.off[k]:t.off[k+1]] {
			if c&mask == 0 {
				continue
			}
			if slot := ctx.slotOf(roadnet.EdgeID(c >> matchBits)); sc.slotRun[slot] != i {
				sc.slotRun[slot] = i
				sc.runEdges = append(sc.runEdges, slot)
				ctx.setBit(slot, run.di)
			}
		}
		sc.runPre = append(sc.runPre, int32(len(sc.runEdges))-run.edges)
	}
}

// addSpliced adds spliced reference r through its runs ra (T_a) and rb (T_b):
// the samples no earlier reference listed, each run's partner bit over the
// prefix r takes of the run, and the junction rows.
func (x exec) addSpliced(ctx *pairContext, r hist.Reference, ra, rb *spliceRun) {
	sc := x.sc
	runA, runB := r.Runs(x.snap)
	_, tabA := x.table(ra.di)
	_, tabB := x.table(rb.di)
	for j := ra.seen; j < r.LenA; j++ {
		ctx.addPoint(runA[j].Pt, tabA, r.OffA+j)
	}
	for j := int32(0); j < r.LenB-rb.seen; j++ {
		ctx.addPoint(runB[j].Pt, tabB, r.OffB+j)
	}
	ra.seen, rb.seen = max(ra.seen, r.LenA), max(rb.seen, r.LenB)

	for _, slot := range sc.runEdges[ra.edges : ra.edges+sc.runPre[ra.pre+r.LenA-1]] {
		ctx.setBit(slot, rb.di)
	}
	if r.LenB >= 2 {
		for _, slot := range sc.runEdges[rb.edges : rb.edges+sc.runPre[rb.pre+r.LenB]] {
			ctx.setBit(slot, ra.di)
		}
	}
	// The junction p_a→p_b heads the last T_a sample, and the T_b sample too
	// when it is the reference's last.
	junction := runA[r.LenA-1].Pt.Heading(runB[0].Pt)
	x.addJunction(ctx, ra.di, r.OffA+r.LenA-1, junction, ra.di, rb.di)
	if r.LenB == 1 {
		x.addJunction(ctx, rb.di, r.OffB, junction, ra.di, rb.di)
	}
}

// addJunction sets bits a and b on the candidates of row k of dense id di's
// table that agree with heading.
func (x exec) addJunction(ctx *pairContext, di, k int32, heading float64, a, b int32) {
	g := x.eng.g
	t, _ := x.table(di)
	for _, c := range t.cands[t.off[k]:t.off[k+1]] {
		e := roadnet.EdgeID(c >> matchBits)
		if geo.AngleDiff(g.SegHeading(e), heading) > maxHeadingDiff {
			continue
		}
		slot := ctx.slotOf(e)
		ctx.setBit(slot, a)
		ctx.setBit(slot, b)
	}
}

// addPerPoint adds reference r point by point: each point's candidates, each
// masked by the heading at the point, get the bits of r's sources.
func (x exec) addPerPoint(ctx *pairContext, r hist.Reference) {
	g := x.eng.g
	di, dj := ctx.idIndex(r.SourceA), int32(-1)
	ta, ia := x.table(di)
	tb, ib := ta, ia
	if r.SourceB >= 0 {
		dj = ctx.idIndex(r.SourceB)
		tb, ib = x.table(dj)
	}
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
			t, it, k, pt = tb, ib, int(r.OffB)+j-lenA, runB[j-lenA].Pt
		}
		ctx.addPoint(pt, it, int32(k))
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
			slot := ctx.slotOf(e)
			ctx.setBit(slot, di)
			if dj >= 0 {
				ctx.setBit(slot, dj)
			}
		}
	}
}

// addPoint appends sample k of table tab, at pt, to the point list and MBR.
func (ctx *pairContext) addPoint(pt geo.Point, tab, k int32) {
	ctx.sc.points = append(ctx.sc.points, refPoint{pt, sampleID{tab, k}})
	ctx.box = ctx.box.ExtendPoint(pt)
}

// density returns the reference point density in points per km²
// (|P_i| / area(MBR(P_i)), §III-B.3).
func (ctx *pairContext) density() float64 {
	if ctx.npoints == 0 {
		return 0
	}
	areaKm2 := ctx.box.Area() / 1e6
	if areaKm2 < 1e-6 {
		return math.Inf(1) // all points coincide: infinitely dense
	}
	return float64(ctx.npoints) / areaKm2
}
