package hist

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/traj"
)

// Reference is a reference trajectory with respect to one query pair
// ⟨q_i, q_{i+1}⟩: either the sub-trajectory T_i^k of an archive trajectory
// between nn(q_i, T_k) and nn(q_{i+1}, T_k) (Definition 6), or a virtual
// trajectory spliced from two archive trajectories (Definition 7). It names
// its points instead of holding them: LenA points of archive trajectory
// SourceA from index OffA on, then — spliced references only — LenB points of
// SourceB from OffB on (SourceB is -1 otherwise). Runs resolves the names;
// core's match tables are indexed by the same positions. The memo retains
// References, so one stays within 32 bytes and holds no pointer (tested).
type Reference struct {
	SourceA, OffA, LenA int32
	SourceB, OffB, LenB int32
	Spliced             bool
}

// Runs returns r's points as its two runs, b empty unless r is spliced. Both
// alias v's immutable trajectory storage and must not be modified.
func (r Reference) Runs(v View) (a, b []traj.GPSPoint) {
	if r.LenA > 0 {
		a = v.Traj(int(r.SourceA)).Points[r.OffA : r.OffA+r.LenA]
	}
	if r.Spliced {
		b = v.Traj(int(r.SourceB)).Points[r.OffB : r.OffB+r.LenB]
	}
	return a, b
}

// SearchParams controls the reference search.
type SearchParams struct {
	Phi       float64 // search radius φ around q_i and q_{i+1}
	SpliceEps float64 // splicing threshold e of Definition 7 (<= 0: no splicing)
	// SpliceMinSimple only engages the spliced-reference search when fewer
	// simple references than this were found. The paper motivates splicing
	// as a remedy for "an area with sparse historical data" where simple
	// references are "too small [in number] to support our inference"
	// (§III-A.2); when simple references abound, splicing only adds noisy
	// crossing-pair pseudo-routes. 0 means always splice.
	SpliceMinSimple int
	// VMax overrides the road network's maximum speed in Definition 6's
	// feasibility condition. Required when the archive has no road network
	// (the network-free extension); 0 uses the network's V_max.
	VMax float64
}

// searchable reports whether the pair can have references at all: φ is a
// number >= 0 and time advances, so Definition 6's speed budget is positive.
// NaN or negative φ and duplicate or out-of-order timestamps have none.
func searchable(qi, qj traj.GPSPoint, p SearchParams) bool {
	return p.Phi >= 0 && qj.T > qi.T
}

// References finds all reference trajectories in v for the pair ⟨qi, qj⟩
// (qj = q_{i+1}): first the simple references of Definition 6, then — when
// splicing is enabled — the spliced references of Definition 7 built from
// the leftover one-sided candidates.
func References(v View, qi, qj traj.GPSPoint, p SearchParams) []Reference {
	s := searcherPool.Get().(*Searcher)
	refs := s.references(v, qi, qj, p, nil, nil)
	s.Release()
	searcherPool.Put(s)
	return refs
}

var searcherPool = sync.Pool{New: func() any { return new(Searcher) }}

// nearHit is one trajectory of a near set with the index of nn(q, T). Hits
// share grp only when their trajectories are indistinguishable by canonKey.
type nearHit struct{ traj, idx, grp int32 }

// NearSet carries the near sets of the last pair searched — per query point
// the archive trajectories with a sample within φ of it, in canonical order
// (see canonKey), each with its nearest sample — to the next pair: adjacent
// pairs share a point, so that search walks the index once. The zero value
// carries nothing; a used one belongs to one goroutine and pins its view.
type NearSet struct {
	view View
	phi  float64
	pt   [2]geo.Point // the last pair's q_i, q_{i+1}
	hits [2][]nearHit
}

// nearCand is a trajectory touched by the walk in progress: idx is its
// nearest in-range sample so far, at squared distance d2.
type nearCand struct {
	key       canonKey
	d2        float64
	traj, idx int32
}

// sidePoint is one candidate point of the splice join: d is its distance to its
// side's query point, rank its trajectory's rank in the side, seq its fill order.
type sidePoint struct {
	pt             geo.Point
	d              float64
	rank, idx, seq int32
}

// spliceBest is one (T_a, T_b)'s best splicing pair and its score; pa < 0: none.
type spliceBest struct {
	d      float64
	pa, pb int32
}

// Searcher is the scratch of the reference search, for one goroutine at a
// time; the zero value is ready and a used one must not be copied. Nothing a
// search returns aliases it: results are copied out at exact size.
type Searcher struct {
	// Stamp table by trajectory index: slot[t] counts only while ver[t] == cur.
	ver  []uint32
	slot []int32
	cur  uint32
	// The walk in progress: the visitor (bound once, so a walk allocates
	// nothing) reads v, q and phi and fills touched; order sorts it by handle.
	visit   func(PointRef) bool
	v       View
	q       geo.Point
	phi     float64
	touched []nearCand
	order   []int32

	own          NearSet // the carried set when the caller passes none
	aside, bside []sidePoint
	arank, brank []nearHit // side rank -> trajectory and its nn index
	best         []spliceBest
	refs         []Reference
}

// Release unpins the view of the searcher's own near sets, for pooled owners.
func (s *Searcher) Release() { s.own.view = nil }

// begin opens a fresh stamp generation over n trajectories.
func (s *Searcher) begin(n int) {
	if s.cur++; len(s.ver) < n || s.cur == 0 { // grown, or wrapped: stale stamps could collide
		s.ver, s.slot, s.cur = make([]uint32, n), make([]int32, n), 1
	}
}

// walk appends to out the near set of q: one traversal of the index, the
// exact radius test per hit, and per touched trajectory the nearest in-range
// sample — lowest index on equal distance: nn(q, T) itself (the scan order of
// Trajectory.NearestPointIndex) whenever T has a sample in range.
func (s *Searcher) walk(v View, q geo.Point, phi float64, out []nearHit) []nearHit {
	if s.visit == nil {
		s.visit = s.visitHit
	}
	s.begin(v.NumTrajs())
	s.v, s.q, s.phi, s.touched, s.order = v, q, phi, s.touched[:0], s.order[:0]
	v.VisitBox(geo.BBoxAround(q, phi), s.visit)
	s.v = nil
	// Canonical order: reference order feeds tie-breaking downstream, so it
	// must not depend on storage or index order. Sorted by handle: 4 B, not 64.
	for i := range s.touched {
		s.order = append(s.order, int32(i))
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		ca, cb := &s.touched[a], &s.touched[b]
		if c := ca.key.compare(cb.key); c != 0 {
			return c
		}
		return cmp.Compare(ca.traj, cb.traj)
	})
	grp := int32(0)
	for i, o := range s.order {
		c := &s.touched[o]
		if i > 0 && c.key.compare(s.touched[s.order[i-1]].key) != 0 {
			grp++
		}
		out = append(out, nearHit{c.traj, c.idx, grp})
	}
	return out
}

func (s *Searcher) visitHit(r PointRef) bool {
	tr := s.v.Traj(r.Traj)
	pt := tr.Points[r.Idx].Pt
	if !(pt.Dist(s.q) <= s.phi) {
		return true // in the box, outside the circle
	}
	d2, idx := pt.Dist2(s.q), int32(r.Idx)
	if s.ver[r.Traj] != s.cur {
		s.ver[r.Traj], s.slot[r.Traj] = s.cur, int32(len(s.touched))
		s.touched = append(s.touched, nearCand{key: canonKeyOf(tr), d2: d2, traj: int32(r.Traj), idx: idx})
	} else if c := &s.touched[s.slot[r.Traj]]; d2 < c.d2 || d2 == c.d2 && idx < c.idx {
		c.d2, c.idx = d2, idx
	}
	return true
}

// references runs one search. Once done is closed it returns the references
// found so far, a valid subset the caller may use or discard. near holds the
// carried near sets (nil: the searcher's own): when the pair is adjacent to
// the last one the search walks once, and it leaves its own two sets behind.
func (s *Searcher) references(v View, qi, qj traj.GPSPoint, p SearchParams, near *NearSet, done <-chan struct{}) []Reference {
	if !searchable(qi, qj, p) {
		return nil
	}
	vmax := p.VMax
	if vmax <= 0 {
		vmax = v.Graph().MaxSpeed()
	}
	budget := (qj.T - qi.T) * vmax

	if near == nil {
		near = &s.own
	}
	ni, nj := near.hits[0], near.hits[1]
	switch carried := near.view == v && near.phi == p.Phi; {
	case carried && near.pt[1] == qi.Pt: // the pair after the last one
		ni, nj = nj, s.walk(v, qj.Pt, p.Phi, ni[:0])
	case carried && near.pt[0] == qj.Pt: // the pair before it
		ni, nj = s.walk(v, qi.Pt, p.Phi, nj[:0]), ni
	default:
		ni, nj = s.walk(v, qi.Pt, p.Phi, ni[:0]), s.walk(v, qj.Pt, p.Phi, nj[:0])
	}
	*near = NearSet{v, p.Phi, [2]geo.Point{qi.Pt, qj.Pt}, [2][]nearHit{ni, nj}}

	// Stamp q_i's set and join q_{i+1}'s against it. Both are in canonical
	// order, so their intersection comes out in it too. A consumed stamp
	// (slot -1) marks a trajectory near both points: no splice candidate.
	s.begin(v.NumTrajs())
	for k, h := range ni {
		s.ver[h.traj], s.slot[h.traj] = s.cur, int32(k)
	}
	refs := s.refs[:0]
	for _, h := range nj {
		if graphalg.Stopped(done) {
			return s.publish(refs)
		}
		if s.ver[h.traj] != s.cur {
			continue
		}
		m, n := ni[s.slot[h.traj]].idx, h.idx
		s.slot[h.traj] = -1
		if m > n {
			continue // wrong travel direction
		}
		if !speedFeasible(v.Traj(int(h.traj)).Points[m:n+1], qi.Pt, qj.Pt, budget) {
			continue
		}
		refs = append(refs, Reference{SourceA: h.traj, OffA: m, LenA: n - m + 1, SourceB: -1})
	}
	if p.SpliceEps > 0 && (p.SpliceMinSimple == 0 || len(refs) < p.SpliceMinSimple) {
		refs = s.splice(refs, v, qi.Pt, qj.Pt, p.SpliceEps, budget, ni, nj, done)
	}
	return s.publish(refs)
}

// publish copies the scratch-backed reference list out at exact size.
func (s *Searcher) publish(refs []Reference) []Reference {
	s.refs = refs[:0]
	if len(refs) == 0 {
		return nil
	}
	return append(make([]Reference, 0, len(refs)), refs...)
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

// fillSide appends to side the samples of h's trajectory from nn(q, T) on, in
// direction step, while they stay inside the feasible lens, and h to ranks if
// any did. own is the side's query point.
func fillSide(side []sidePoint, ranks []nearHit, h nearHit, pts []traj.GPSPoint, step int,
	own, other geo.Point, budget float64) ([]sidePoint, []nearHit) {
	before := len(side)
	for k := int(h.idx); k >= 0 && k < len(pts); k += step {
		d := pts[k].Pt.Dist(own)
		if d+pts[k].Pt.Dist(other) > budget {
			break // heading out of the feasible lens
		}
		side = append(side, sidePoint{pt: pts[k].Pt, d: d, rank: int32(len(ranks)), idx: int32(k), seq: int32(len(side))})
	}
	if len(side) > before {
		ranks = append(ranks, h)
	}
	return side, ranks
}

// splice appends the Definition 7 references: T_a passes near q_i only, T_b
// near q_{i+1} only; a splicing pair (p_a, p_b) with d(p_a, p_b) ≤ e joins
// them into a virtual reference. The splicing pairs are found with a
// plane-sweep spatial join over the two candidate point sets; for each
// (T_a, T_b) the pair minimizing d(p_a,q_i)+d(p_b,q_{i+1}), first in sweep
// order, is kept in a dense table indexed by the sides' canonical ranks. A
// side holds only points inside the feasible lens, contiguous from the nn
// sample, so what is emitted already passed Definition 6's speed test.
func (s *Searcher) splice(refs []Reference, v View, qi, qj geo.Point, eps, budget float64,
	ni, nj []nearHit, done <-chan struct{}) []Reference {
	// A-side: points after nn(q_i, T_a) on trajectories near q_i only; B-side:
	// points before nn(q_{i+1}, T_b) on trajectories near q_{i+1} only.
	aside, arank, bside, brank := s.aside[:0], s.arank[:0], s.bside[:0], s.brank[:0]
	for _, h := range ni {
		if s.slot[h.traj] >= 0 {
			aside, arank = fillSide(aside, arank, h, v.Traj(int(h.traj)).Points, +1, qi, qj, budget)
		}
	}
	for _, h := range nj {
		if s.ver[h.traj] != s.cur {
			bside, brank = fillSide(bside, brank, h, v.Traj(int(h.traj)).Points, -1, qj, qi, budget)
		}
	}
	s.aside, s.arank, s.bside, s.brank = aside, arank, bside, brank
	if len(aside) == 0 || len(bside) == 0 {
		return refs
	}

	// Plane-sweep join on X with window e [Arge et al. 1998]. Equal X keeps
	// fill order — canonical trajectory order, then along the direction the
	// side was filled in — so tie-breaking is storage-order independent.
	byX := func(a, b sidePoint) int {
		if c := cmp.Compare(a.pt.X, b.pt.X); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
	slices.SortFunc(aside, byX)
	slices.SortFunc(bside, byX)
	nb := len(brank)
	best := slices.Grow(s.best[:0], len(arank)*nb)[:len(arank)*nb]
	s.best = best
	for i := range best {
		best[i].pa = -1
	}
	lo := 0
	for i, pa := range aside {
		if i&255 == 0 && graphalg.Stopped(done) {
			return refs // a partial sweep would bias pair selection; drop it
		}
		for lo < len(bside) && bside[lo].pt.X < pa.pt.X-eps {
			lo++
		}
		for k := lo; k < len(bside) && bside[k].pt.X <= pa.pt.X+eps; k++ {
			pb := bside[k]
			if dy := pa.pt.Y - pb.pt.Y; dy > eps || dy < -eps {
				continue
			}
			if pa.pt.Dist(pb.pt) > eps {
				continue
			}
			if e := &best[int(pa.rank)*nb+int(pb.rank)]; e.pa < 0 || pa.d+pb.d < e.d {
				*e = spliceBest{d: pa.d + pb.d, pa: pa.idx, pb: pb.idx}
			}
		}
	}
	// Emission order is (key of T_a, key of T_b, storage indices): the table
	// row by row, except that rows — and columns — of one key group interleave.
	for a0, a1 := 0, 0; a0 < len(arank); a0 = a1 {
		for a1 = a0 + 1; a1 < len(arank) && arank[a1].grp == arank[a0].grp; a1++ {
		}
		for b0, b1 := 0, 0; b0 < nb; b0 = b1 {
			for b1 = b0 + 1; b1 < nb && brank[b1].grp == brank[b0].grp; b1++ {
			}
			for a := a0; a < a1; a++ {
				for b := b0; b < b1; b++ {
					e, ha, hb := best[a*nb+b], arank[a], brank[b]
					if e.pa < 0 {
						continue
					}
					refs = append(refs, Reference{
						SourceA: ha.traj, OffA: ha.idx, LenA: e.pa - ha.idx + 1,
						SourceB: hb.traj, OffB: e.pb, LenB: hb.idx - e.pb + 1,
						Spliced: true,
					})
				}
			}
		}
	}
	return refs
}
