package core

import (
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// trajMatch is the map-matching of one archive trajectory — the paper's
// preprocessing step (§II-B.1) — at one ε: per point, its candidate edges
// (Definition 5) in distance order, each tagged with whether the segment's
// direction agrees within maxHeadingDiff with the trajectory's heading
// leaving the point (k→k+1) and arriving at it (k−1→k). Nothing in it
// depends on a query, so it is built once and is immutable thereafter.
type trajMatch struct {
	off   []int32 // CSR: point k's candidates are cands[off[k]:off[k+1]]
	cands []int32 // edge id << matchBits | matchAny | matchArr | matchDep
}

const (
	matchDep  = 1 << iota // segment agrees with the departure heading k→k+1
	matchArr              // segment agrees with the arrival heading k−1→k
	matchAny              // set on every entry: the mask of "no heading filter"
	matchBits = iota
)

// maxHeadingDiff tolerates mid-turn samples (a point between two
// perpendicular streets travels at ~45° to both).
const maxHeadingDiff = 75 * math.Pi / 180

func buildTrajMatch(g *roadnet.Graph, tr *traj.Trajectory, eps float64) *trajMatch {
	n := tr.Len()
	t := &trajMatch{off: make([]int32, n+1)}
	var arr float64 // heading k−1→k: the previous point's departure heading
	for k, p := range tr.Points {
		var dep float64
		if k+1 < n {
			dep = p.Pt.Heading(tr.Points[k+1].Pt)
		}
		for _, c := range g.CandidateEdges(p.Pt, eps) {
			v, h := int32(c.Edge)<<matchBits|matchAny, g.SegHeading(c.Edge)
			if k+1 < n && geo.AngleDiff(h, dep) <= maxHeadingDiff {
				v |= matchDep
			}
			if k > 0 && geo.AngleDiff(h, arr) <= maxHeadingDiff {
				v |= matchArr
			}
			t.cands = append(t.cands, v)
		}
		t.off[k+1] = int32(len(t.cands))
		arr = dep
	}
	return t
}

// matchTables holds the engine's match tables, keyed by trajectory identity
// and ε. A table is built on its trajectory's first touch and then shared
// by every pair, query, epoch and session: archive trajectories are
// immutable and keep their identity across store generations and shards.
// Entries are never evicted — the archive is append-only, and a table is a
// fraction of the size of the trajectory it annotates. Racing first touches
// build equal tables; the first to publish wins and every reader gets that
// one.
type matchTables struct {
	g *roadnet.Graph

	mu     sync.RWMutex
	m      map[matchKey]*trajMatch
	builds uint64 // tables built, including the losers of raced first touches
}

type matchKey struct {
	tr  *traj.Trajectory
	eps uint64 // math.Float64bits(ε)
}

func (mt *matchTables) get(tr *traj.Trajectory, eps float64) *trajMatch {
	k := matchKey{tr, math.Float64bits(eps)}
	mt.mu.RLock()
	t := mt.m[k]
	mt.mu.RUnlock()
	if t != nil {
		return t
	}
	t = buildTrajMatch(mt.g, tr, eps)
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.builds++
	if prev := mt.m[k]; prev != nil {
		return prev
	}
	mt.m[k] = t
	return t
}

// stats returns the number of published tables, the trajectory points they
// cover and the number of builds behind them.
func (mt *matchTables) stats() (tables, points, builds uint64) {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	for _, t := range mt.m {
		points += uint64(len(t.off) - 1)
	}
	return uint64(len(mt.m)), points, mt.builds
}
