package mapmatch

import (
	"context"
	"math"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Incremental implements the classic incremental matcher [Greenfeld 2002]:
// each point is matched greedily using its geometric fit (projection
// distance and heading similarity) plus the topological continuity with
// the edge matched to the previous point. It has no look-ahead, which is
// exactly why it degrades on low-sampling-rate trajectories (§IV-C).
type Incremental struct {
	G      *roadnet.Graph
	Params Params
	// HopLimit bounds the connectivity search from the previous edge.
	HopLimit int
}

// NewIncremental returns an incremental matcher on g.
func NewIncremental(g *roadnet.Graph, prm Params) *Incremental {
	return &Incremental{G: g, Params: prm, HopLimit: 6}
}

// Name implements Matcher.
func (m *Incremental) Name() string { return "incremental" }

// Match implements Matcher.
func (m *Incremental) Match(t *traj.Trajectory) (roadnet.Route, error) {
	if t.Len() == 0 {
		return nil, ErrNoRoute
	}
	locs := make([]roadnet.Location, 0, t.Len())
	prevEdge := roadnet.NoEdge
	var hs graphalg.HopSearch
	for i, p := range t.Points {
		cands := candidatesFor(m.G, p.Pt, m.Params)
		if len(cands) == 0 {
			continue
		}
		var heading float64
		hasHeading := false
		if i+1 < t.Len() {
			heading = p.Pt.Heading(t.Points[i+1].Pt)
			hasHeading = true
		} else if i > 0 {
			heading = t.Points[i-1].Pt.Heading(p.Pt)
			hasHeading = true
		}
		var hops *graphalg.HopSearch
		if prevEdge != roadnet.NoEdge {
			m.G.EdgeHopsFrom(context.Background(), &hs, prevEdge, m.HopLimit)
			hops = &hs
		}
		best, bestScore := cands[0], math.Inf(-1)
		for _, c := range cands {
			s := m.score(c, heading, hasHeading, hops)
			if s > bestScore {
				best, bestScore = c, s
			}
		}
		locs = append(locs, roadnet.Location{Edge: best.Edge, Offset: best.Offset})
		prevEdge = best.Edge
	}
	return StitchLocations(m.G, locs)
}

// score combines projection distance, heading agreement and topological
// continuity, following Greenfeld's weighted similarity measure. hopsFromPrev
// holds the last search from the previous point's edge, nil at the first.
func (m *Incremental) score(c roadnet.Candidate, heading float64, hasHeading bool, hopsFromPrev *graphalg.HopSearch) float64 {
	s := observation(c.Dist, m.Params.GPSSigma)
	if hasHeading {
		seg := m.G.Seg(c.Edge)
		segHeading := seg.Shape[0].Heading(seg.Shape[len(seg.Shape)-1])
		diff := geo.AngleDiff(heading, segHeading)
		s += 0.5 * math.Cos(diff) // in [-0.5, 0.5]
	}
	if hopsFromPrev != nil {
		if h := hopsFromPrev.Hops(int(c.Edge)); h >= 0 {
			s += 0.6 / float64(h+1) // reachable: closer is better
		} else {
			s -= 0.6 // unreachable from the previous edge
		}
	}
	return s
}
