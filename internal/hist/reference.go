package hist

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/grid"
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

// nearHit is one trajectory of a near set with the index of nn(q, T) and
// its canonical rank, which hits share only when their trajectories are
// indistinguishable by canonKey.
type nearHit struct{ traj, idx, canon int32 }

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

// nearCand is a trajectory touched by the walk in progress, with its
// canonical rank: idx is its nearest in-range sample so far, at squared
// distance d2. next chains the touched trajectories of one rank in
// trajectory order (-1 ends the chain).
type nearCand struct {
	d2                    float64
	rank, traj, idx, next int32
}

// sidePoint is one candidate point of the splice join: d is its distance to its
// side's query point, rank its trajectory's rank in the side.
type sidePoint struct {
	pt        geo.Point
	d         float64
	rank, idx int32
}

// spliceBest is one (T_a, T_b)'s best splicing pair, as positions in the
// two sides, and its score.
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
	// nothing) reads v, q and rad and fills touched.
	visit   func(geo.Point, PointRef) bool
	v       View
	q       geo.Point
	rad     radius
	touched []nearCand
	// The walk's canonical order, by canonical rank: bit r of rankBits is set
	// while a touched trajectory has rank r, rankHead[r] is the first of them
	// and nearCand.next chains the rest. Words rlo..rhi-1 hold every set bit;
	// reading the near set out clears them, so the next walk starts empty.
	rankBits []uint64
	rankHead []int32
	rlo, rhi int

	own            NearSet // the carried set when the caller passes none
	aside, bside   []sidePoint
	bstart, border []int32   // side B by cell: the splice join's counting sort
	arank, brank   []nearHit // side rank -> trajectory and its nn index
	best           []spliceBest
	filled         []uint64 // bit c set: best[c] holds a splicing pair
	refs           []Reference
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
	n := v.NumTrajs()
	s.begin(n)
	if len(s.rankHead) < n { // ranks are dense in [0, n)
		s.rankBits, s.rankHead = make([]uint64, (n+63)/64), make([]int32, n)
	}
	s.v, s.q, s.rad, s.touched = v, q, newRadius(phi), s.touched[:0]
	s.rlo, s.rhi = len(s.rankBits), 0
	v.VisitBox(geo.BBoxAround(q, phi), s.visit)
	s.v = nil
	// Canonical order: reference order feeds tie-breaking downstream, so it
	// must not depend on storage or index order. The set bits are the
	// touched ranks, ascending; each rank's chain is in trajectory order.
	for w := s.rlo; w < s.rhi; w++ {
		for word := s.rankBits[w]; word != 0; word &= word - 1 {
			for k := s.rankHead[w<<6+bits.TrailingZeros64(word)]; k >= 0; {
				c := &s.touched[k]
				out, k = append(out, nearHit{c.traj, c.idx, c.rank}), c.next
			}
		}
		s.rankBits[w] = 0
	}
	return out
}

func (s *Searcher) visitHit(pt geo.Point, r PointRef) bool {
	d2, in := s.rad.contains(pt, s.q)
	if !in {
		return true // in the box, outside the circle
	}
	idx := int32(r.Idx)
	if s.ver[r.Traj] == s.cur {
		if c := &s.touched[s.slot[r.Traj]]; d2 < c.d2 || d2 == c.d2 && idx < c.idx {
			c.d2, c.idx = d2, idx
		}
		return true
	}
	k, rank := int32(len(s.touched)), s.v.CanonRank(r.Traj)
	s.ver[r.Traj], s.slot[r.Traj] = s.cur, k
	s.touched = append(s.touched, nearCand{d2: d2, rank: rank, traj: int32(r.Traj), idx: idx, next: -1})
	if w, b := int(rank>>6), uint64(1)<<(rank&63); s.rankBits[w]&b == 0 {
		s.rankBits[w] |= b
		s.rankHead[rank] = k
		s.rlo, s.rhi = min(s.rlo, w), max(s.rhi, w+1)
	} else { // trajectories indistinguishable by canonKey: chain by index
		at := &s.rankHead[rank]
		for *at >= 0 && s.touched[*at].traj < int32(r.Traj) {
			at = &s.touched[*at].next
		}
		s.touched[k].next, *at = *at, k
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
		side = append(side, sidePoint{pt: pts[k].Pt, d: d, rank: int32(len(ranks)), idx: int32(k)})
	}
	if len(side) > before {
		ranks = append(ranks, h)
	}
	return side, ranks
}

// nextBit returns the first set bit of bm in [from, to), or to.
func nextBit(bm []uint64, from, to int) int {
	for from < to {
		if word := bm[from>>6] >> (from & 63); word != 0 {
			return min(from+bits.TrailingZeros64(word), to)
		}
		from = (from | 63) + 1
	}
	return to
}

// splice appends the Definition 7 references: T_a passes near q_i only, T_b
// near q_{i+1} only; a splicing pair (p_a, p_b) with d(p_a, p_b) ≤ e joins
// them into a virtual reference. The splicing pairs are found by a cell
// join: side B is bucketed into cells of side at least e, and each side-A
// point tests only the side-B points of the cells its e-box meets. For each
// (T_a, T_b) the pair minimizing d(p_a,q_i)+d(p_b,q_{i+1}) is kept in a
// dense table indexed by the sides' canonical ranks; an exact tie keeps the
// pair first in (p_a's X, p_a's fill position, p_b's X, p_b's fill position),
// X by cmp.Compare (−0 as +0), so the choice depends on no storage or scan
// order. A side holds only points inside the feasible lens, contiguous from
// the nn sample, so what is emitted already passed Definition 6's speed test.
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

	// Side B's cells: squares of side at least e over its bounding box, no
	// more of them than it has points (side ≥ √(w·h/n) and ≥ max(w, h)/n).
	// A NaN anywhere makes one cell, so no NaN or Inf reaches an int. They
	// are numbered by grid.AxisCell, and a counting sort lists each cell's
	// points in fill order: the side-B positions of cell c are
	// order[start[c]:start[c+1]].
	box := geo.EmptyBBox()
	for _, p := range bside {
		box = box.ExtendPoint(p.pt)
	}
	bw, bh, n := box.Max.X-box.Min.X, box.Max.Y-box.Min.Y, float64(len(bside))
	side := max(eps, math.Sqrt(bw*bh/n), max(bw, bh)/n)
	along := func(ext float64) int {
		if k := math.Floor(ext / side); k >= 1 {
			return int(k)
		}
		return 1 // also NaN, and Inf/Inf
	}
	nx, ny := along(bw), along(bh)
	cell := func(x, y float64) (int, int) {
		return grid.AxisCell(x, box.Min.X, side, nx), grid.AxisCell(y, box.Min.Y, side, ny)
	}
	start := slices.Grow(s.bstart[:0], nx*ny+1)[:nx*ny+1]
	order := slices.Grow(s.border[:0], len(bside))[:len(bside)]
	s.bstart, s.border = start, order
	clear(start)
	for _, p := range bside {
		x, y := cell(p.pt.X, p.pt.Y)
		start[y*nx+x+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	for k, p := range bside {
		x, y := cell(p.pt.X, p.pt.Y)
		order[start[y*nx+x]] = int32(k)
		start[y*nx+x]++
	}
	copy(start[1:], start)
	start[0] = 0

	nb, cells := len(brank), len(arank)*len(brank)
	best := slices.Grow(s.best[:0], cells)[:cells]
	filled := slices.Grow(s.filled[:0], (cells+63)/64)[:(cells+63)/64]
	s.best, s.filled = best, filled
	clear(filled)
	// A pair passes the X window, then |dy| ≤ e, then the distance: the
	// squared distance decides unless it lies within a relative 1e-9 of e²,
	// where Dist decides: the margin is far above the rounding of both
	// wherever e² is a normal float; NaN fails that last test. The probe box
	// is one ulp wider than e, so it holds every p_b whose computed |dx| or
	// |dy| rounds to e or less.
	lo2, hi2 := eps*eps*(1-1e-9), eps*eps*(1+1e-9)
	if eps < 1e-150 || eps > 1e150 {
		lo2, hi2 = -1, math.Inf(1)
	}
	probe := math.Nextafter(eps, math.Inf(1))
	for i := range aside {
		if i&255 == 0 && graphalg.Stopped(done) {
			return refs // a partial join would bias pair selection; drop it
		}
		pa := &aside[i]
		x0, y0 := cell(pa.pt.X-probe, pa.pt.Y-probe)
		x1, y1 := cell(pa.pt.X+probe, pa.pt.Y+probe)
		for y := y0; y <= y1; y++ {
			for _, k := range order[start[y*nx+x0]:start[y*nx+x1+1]] {
				pb := &bside[k]
				if pb.pt.X < pa.pt.X-eps || pb.pt.X > pa.pt.X+eps {
					continue
				}
				if dy := pa.pt.Y - pb.pt.Y; dy > eps || dy < -eps {
					continue
				}
				if d2 := pa.pt.Dist2(pb.pt); !(d2 <= lo2 || d2 <= hi2 && pa.pt.Dist(pb.pt) <= eps) {
					continue
				}
				c, d := int(pa.rank)*nb+int(pb.rank), pa.d+pb.d
				if w, bit, e := c>>6, uint64(1)<<(c&63), &best[c]; filled[w]&bit == 0 || d < e.d || d == e.d && cmp.Or(
					cmp.Compare(pa.pt.X, aside[e.pa].pt.X), cmp.Compare(int32(i), e.pa),
					cmp.Compare(pb.pt.X, bside[e.pb].pt.X), cmp.Compare(k, e.pb)) < 0 {
					filled[w] |= bit
					*e = spliceBest{d: d, pa: int32(i), pb: k}
				}
			}
		}
	}
	// Emission order is (key of T_a, key of T_b, storage indices): the filled
	// cells in table order, read off the bitmap, except that the rows of one
	// key group of T_a (twins) interleave by key group of T_b.
	for c := nextBit(filled, 0, cells); c < cells; c = nextBit(filled, c, cells) {
		a0, a1 := c/nb, c/nb+1 // a0: the group's first filled row
		for a1 < len(arank) && arank[a1].canon == arank[a0].canon {
			a1++
		}
		for b0, b1 := 0, nb; b0 < nb; b0 = b1 {
			if a1 > a0+1 { // twins: one key group of T_b at a time
				for b1 = b0 + 1; b1 < nb && brank[b1].canon == brank[b0].canon; b1++ {
				}
			}
			for a := a0; a < a1; a++ {
				for c = nextBit(filled, a*nb+b0, a*nb+b1); c < a*nb+b1; c = nextBit(filled, c+1, a*nb+b1) {
					e, ha, hb := best[c], arank[a], brank[c-a*nb]
					pa, pb := aside[e.pa].idx, bside[e.pb].idx
					refs = append(refs, Reference{
						SourceA: ha.traj, OffA: ha.idx, LenA: pa - ha.idx + 1,
						SourceB: hb.traj, OffB: pb, LenB: hb.idx - pb + 1,
						Spliced: true,
					})
				}
			}
		}
		c = a1 * nb
	}
	return refs
}
