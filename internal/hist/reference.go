package hist

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/traj"
)

// swPoint is one candidate point of the plane-sweep splice join.
type swPoint struct {
	pt   geo.Point
	traj int
	idx  int
}

// sweepScratch pools the plane-sweep side buffers: the splice join runs on
// every sparse-area reference search and its two candidate point lists are
// that path's largest transient allocations. Emitted references copy their
// points out of the archive trajectories, so nothing published aliases
// these buffers.
type sweepScratch struct {
	aside, bside []swPoint
}

var sweepPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// Reference is a reference trajectory with respect to one query pair
// ⟨q_i, q_{i+1}⟩: either the sub-trajectory T_i^k of an archive trajectory
// between nn(q_i, T_k) and nn(q_{i+1}, T_k) (Definition 6), or a virtual
// trajectory spliced from two archive trajectories (Definition 7). The
// sub-trajectory's points are materialized in Points.
//
// A Reference is the unit the reference-search memo retains, so it is kept
// at 48 bytes: the provenance fields are int32 (asserted by a test).
type Reference struct {
	Points  []traj.GPSPoint
	Spliced bool
	// SourceA is the archive index of the (first) source trajectory;
	// SourceB is the second source for spliced references (-1 otherwise).
	SourceA, SourceB int32
	// Provenance of Points inside the source trajectories, so per-point work
	// done once per archive trajectory (core's match table) can be looked up
	// by position: Points[:LenA] are SourceA's points from index OffA on,
	// Points[LenA:] (spliced references only) are SourceB's from OffB on.
	OffA, LenA, OffB int32
}

// SearchParams controls the reference search.
type SearchParams struct {
	Phi       float64 // search radius φ around q_i and q_{i+1}
	SpliceEps float64 // splicing threshold e of Definition 7
	// SpliceMinSimple only engages the spliced-reference search when fewer
	// simple references than this were found. The paper motivates splicing
	// as a remedy for "an area with sparse historical data" where simple
	// references are "too small [in number] to support our inference"
	// (§III-A.2); when simple references abound, splicing only adds noisy
	// crossing-pair pseudo-routes. 0 means always splice.
	SpliceMinSimple int
	// MaxRefs caps the number of references returned (0 = unlimited);
	// nearer references are preferred.
	MaxRefs int
	// VMax overrides the road network's maximum speed in Definition 6's
	// feasibility condition. Required when the archive has no road network
	// (the network-free extension); 0 uses the network's V_max.
	VMax float64
}

// DefaultSearchParams mirrors Table II: φ = 500 m, e = 200 m, splicing as
// a sparse-area fallback.
func DefaultSearchParams() SearchParams {
	return SearchParams{Phi: 500, SpliceEps: 200, SpliceMinSimple: 8, MaxRefs: 0}
}

// References finds all reference trajectories in v for the pair ⟨qi, qj⟩
// (qj = q_{i+1}): first the simple references of Definition 6, then — when
// splicing is enabled — the spliced references of Definition 7 built from
// the leftover one-sided candidates.
func References(v View, qi, qj traj.GPSPoint, p SearchParams) []Reference {
	return references(v, qi, qj, p, nil)
}

// ReferencesCtx is References with cancellation checkpoints in the
// per-candidate-trajectory loop and the plane-sweep splice join. When ctx
// is cancelled mid-search the references found so far are returned — a
// valid (possibly empty) subset of the full answer; the caller decides via
// ctx.Err() whether to use or discard them.
func ReferencesCtx(ctx context.Context, v View, qi, qj traj.GPSPoint, p SearchParams) []Reference {
	return references(v, qi, qj, p, ctx.Done())
}

func references(v View, qi, qj traj.GPSPoint, p SearchParams, done <-chan struct{}) []Reference {
	vmax := p.VMax
	if vmax <= 0 {
		vmax = v.Graph().MaxSpeed()
	}
	vmaxBudget := (qj.T - qi.T) * vmax

	nearI := v.WithinRadius(qi.Pt, p.Phi)
	nearJ := v.WithinRadius(qj.Pt, p.Phi)

	// Group range hits per trajectory, keeping the nearest hit.
	bestI := nearestPerTraj(v, nearI, qi.Pt)
	bestJ := nearestPerTraj(v, nearJ, qj.Pt)

	var refs []Reference
	usedA := make(map[int]bool) // trajectories already simple references
	// Iterate candidate trajectories in canonical content order: the
	// reference list order feeds tie-breaking downstream (R-tree packing,
	// kNN streams), so it must be deterministic AND independent of the
	// archive's storage order — a live Store ingesting the same trips in any
	// order must infer identical routes.
	candidates := make([]int, 0, len(bestI))
	for ti := range bestI {
		candidates = append(candidates, ti)
	}
	sortTrajsCanonical(v, candidates)
	for _, ti := range candidates {
		if graphalg.Stopped(done) {
			return refs
		}
		if _, ok := bestJ[ti]; !ok {
			continue
		}
		tr := v.Traj(ti)
		m := tr.NearestPointIndex(qi.Pt)
		n := tr.NearestPointIndex(qj.Pt)
		if m < 0 || n < 0 || m > n {
			continue // wrong travel direction
		}
		if tr.Points[m].Pt.Dist(qi.Pt) > p.Phi || tr.Points[n].Pt.Dist(qj.Pt) > p.Phi {
			continue
		}
		sub := tr.Points[m : n+1]
		if !speedFeasible(sub, qi.Pt, qj.Pt, vmaxBudget) {
			continue
		}
		refs = append(refs, Reference{
			Points:  sub,
			SourceA: int32(ti),
			SourceB: -1,
			OffA:    int32(m),
			LenA:    int32(len(sub)),
		})
		usedA[ti] = true
	}

	if p.SpliceEps > 0 && (p.SpliceMinSimple == 0 || len(refs) < p.SpliceMinSimple) {
		refs = append(refs, splicedReferences(v, qi, qj, p, bestI, bestJ, usedA, vmaxBudget, done)...)
	}

	if p.MaxRefs > 0 && len(refs) > p.MaxRefs {
		sort.SliceStable(refs, func(x, y int) bool {
			return refDist(refs[x], qi.Pt, qj.Pt) < refDist(refs[y], qi.Pt, qj.Pt)
		})
		refs = refs[:p.MaxRefs]
	}
	return refs
}

// refDist orders references by how tightly they bracket the query pair.
func refDist(r Reference, qi, qj geo.Point) float64 {
	if len(r.Points) == 0 {
		return math.Inf(1)
	}
	return r.Points[0].Pt.Dist(qi) + r.Points[len(r.Points)-1].Pt.Dist(qj)
}

// canonicalKeys returns the map's trajectory indices in canonical content
// order (see canonKey).
func canonicalKeys(v View, m map[int]PointRef) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortTrajsCanonical(v, out)
	return out
}

// nearestPerTraj keeps, per trajectory, the range hit closest to q.
func nearestPerTraj(v View, hits []PointRef, q geo.Point) map[int]PointRef {
	best := make(map[int]PointRef)
	for _, h := range hits {
		cur, ok := best[h.Traj]
		if !ok || v.Point(h).Pt.Dist2(q) < v.Point(cur).Pt.Dist2(q) {
			best[h.Traj] = h
		}
	}
	return best
}

// speedFeasible checks condition 3 of Definition 6: every point of the
// sub-trajectory satisfies d(p,q_i)+d(p,q_{i+1}) ≤ (q_{i+1}.t−q_i.t)·V_max.
func speedFeasible(pts []traj.GPSPoint, qi, qj geo.Point, budget float64) bool {
	for _, p := range pts {
		if p.Pt.Dist(qi)+p.Pt.Dist(qj) > budget {
			return false
		}
	}
	return true
}

// splicedReferences builds Definition 7 references: T_a passes near q_i
// only, T_b near q_{i+1} only; a splicing pair (p_a, p_b) with
// d(p_a, p_b) ≤ e joins them into a virtual reference. The splicing pairs
// are found with a plane-sweep spatial join over the two candidate point
// sets; for each (T_a, T_b) the pair minimizing d(p_a,q_i)+d(p_b,q_{i+1})
// is kept.
func splicedReferences(v View, qi, qj traj.GPSPoint, p SearchParams,
	bestI, bestJ map[int]PointRef, usedA map[int]bool, vmaxBudget float64,
	done <-chan struct{}) []Reference {

	sw := sweepPool.Get().(*sweepScratch)
	aside, bside := sw.aside[:0], sw.bside[:0]
	defer func() { sw.aside, sw.bside = aside, bside; sweepPool.Put(sw) }()
	// A-side: points after nn(q_i, T_a) on trajectories near q_i only.
	// (Canonical trajectory order keeps plane-sweep tie-breaking stable and
	// storage-order independent.)
	for _, ti := range canonicalKeys(v, bestI) {
		if usedA[ti] {
			continue
		}
		if _, alsoJ := bestJ[ti]; alsoJ {
			continue // failed Definition 6 for another reason; skip
		}
		tr := v.Traj(ti)
		m := tr.NearestPointIndex(qi.Pt)
		if m < 0 || tr.Points[m].Pt.Dist(qi.Pt) > p.Phi {
			continue
		}
		for k := m; k < tr.Len(); k++ {
			pt := tr.Points[k].Pt
			if pt.Dist(qi.Pt)+pt.Dist(qj.Pt) > vmaxBudget {
				break // heading out of the feasible lens
			}
			aside = append(aside, swPoint{pt: pt, traj: ti, idx: k})
		}
	}
	// B-side: points before nn(q_{i+1}, T_b) on trajectories near q_{i+1}.
	for _, tj := range canonicalKeys(v, bestJ) {
		if usedA[tj] {
			continue
		}
		if _, alsoI := bestI[tj]; alsoI {
			continue
		}
		tr := v.Traj(tj)
		n := tr.NearestPointIndex(qj.Pt)
		if n < 0 || tr.Points[n].Pt.Dist(qj.Pt) > p.Phi {
			continue
		}
		for k := n; k >= 0; k-- {
			pt := tr.Points[k].Pt
			if pt.Dist(qi.Pt)+pt.Dist(qj.Pt) > vmaxBudget {
				break
			}
			bside = append(bside, swPoint{pt: pt, traj: tj, idx: k})
		}
	}
	if len(aside) == 0 || len(bside) == 0 {
		return nil
	}

	// Plane-sweep join on X with window e [Arge et al. 1998].
	byX := func(a, b swPoint) int { return cmp.Compare(a.pt.X, b.pt.X) }
	slices.SortStableFunc(aside, byX)
	slices.SortStableFunc(bside, byX)
	type pairKey struct{ a, b int }
	type splice struct {
		pa, pb swPoint
		d      float64
	}
	bestPair := make(map[pairKey]splice)
	lo := 0
	for i, pa := range aside {
		if i&255 == 0 && graphalg.Stopped(done) {
			return nil // a partial sweep would bias pair selection; drop it
		}
		for lo < len(bside) && bside[lo].pt.X < pa.pt.X-p.SpliceEps {
			lo++
		}
		for k := lo; k < len(bside) && bside[k].pt.X <= pa.pt.X+p.SpliceEps; k++ {
			pb := bside[k]
			if pa.traj == pb.traj {
				continue
			}
			if dy := pa.pt.Y - pb.pt.Y; dy > p.SpliceEps || dy < -p.SpliceEps {
				continue
			}
			if pa.pt.Dist(pb.pt) > p.SpliceEps {
				continue
			}
			key := pairKey{pa.traj, pb.traj}
			score := pa.pt.Dist(qi.Pt) + pb.pt.Dist(qj.Pt)
			if cur, ok := bestPair[key]; !ok || score < cur.d {
				bestPair[key] = splice{pa: pa, pb: pb, d: score}
			}
		}
	}

	// Emit spliced references in canonical (key-of-A, key-of-B) order so
	// the output is independent of trajectory storage order.
	keys := make([]pairKey, 0, len(bestPair))
	canon := make(map[int]canonKey)
	for key := range bestPair {
		keys = append(keys, key)
		if _, ok := canon[key.a]; !ok {
			canon[key.a] = canonKeyOf(v.Traj(key.a))
		}
		if _, ok := canon[key.b]; !ok {
			canon[key.b] = canonKeyOf(v.Traj(key.b))
		}
	}
	sort.Slice(keys, func(x, y int) bool {
		if c := canon[keys[x].a].compare(canon[keys[y].a]); c != 0 {
			return c < 0
		}
		if c := canon[keys[x].b].compare(canon[keys[y].b]); c != 0 {
			return c < 0
		}
		if keys[x].a != keys[y].a {
			return keys[x].a < keys[y].a
		}
		return keys[x].b < keys[y].b
	})
	var out []Reference
	for _, key := range keys {
		sp := bestPair[key]
		ta, tb := v.Traj(key.a), v.Traj(key.b)
		m := ta.NearestPointIndex(qi.Pt)
		n := tb.NearestPointIndex(qj.Pt)
		if m < 0 || n < 0 || sp.pa.idx < m || sp.pb.idx > n {
			continue
		}
		pts := make([]traj.GPSPoint, 0, sp.pa.idx-m+1+n-sp.pb.idx+1)
		pts = append(pts, ta.Points[m:sp.pa.idx+1]...)
		pts = append(pts, tb.Points[sp.pb.idx:n+1]...)
		if !speedFeasible(pts, qi.Pt, qj.Pt, vmaxBudget) {
			continue
		}
		out = append(out, Reference{
			Points:  pts,
			Spliced: true,
			SourceA: int32(key.a),
			SourceB: int32(key.b),
			OffA:    int32(m),
			LenA:    int32(sp.pa.idx - m + 1),
			OffB:    int32(sp.pb.idx),
		})
	}
	return out
}
