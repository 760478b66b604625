// Package mapmatch implements the map-matching algorithms the paper uses:
// the incremental geometric matcher [Greenfeld 2002], ST-Matching
// [Lou et al. 2009] and IVMM [Yuan et al. 2010] as the experimental
// competitors (§IV-B), plus the Projector that converts the transit-graph
// traces of HRIS's NNI algorithm into routes.
package mapmatch

import (
	"errors"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// ErrNoRoute is returned when a matcher cannot produce any route for the
// trajectory (e.g. the points are unreachable from one another).
var ErrNoRoute = errors.New("mapmatch: no route found")

// Matcher maps a GPS trajectory onto a road-network route.
type Matcher interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Match returns the matched route for t.
	Match(t *traj.Trajectory) (roadnet.Route, error)
}

// Params are the candidate-search settings shared by all matchers.
type Params struct {
	CandidateRadius float64 // initial search radius ε for candidate edges
	MaxCandidates   int     // candidates kept per point
	GPSSigma        float64 // observation (GPS error) standard deviation
}

// DefaultParams returns the settings used throughout the evaluation:
// ε = 50 m, 5 candidates per point, σ = 20 m.
func DefaultParams() Params {
	return Params{CandidateRadius: 50, MaxCandidates: 5, GPSSigma: 20}
}

// candidatesFor returns up to MaxCandidates candidates for p, widening the
// search radius when the initial ε finds nothing.
func candidatesFor(g *roadnet.Graph, p geo.Point, prm Params) []roadnet.Candidate {
	cands := g.CandidateEdges(p, prm.CandidateRadius)
	if len(cands) == 0 {
		cands = g.NearestCandidates(p, prm.MaxCandidates)
	}
	if len(cands) > prm.MaxCandidates {
		cands = cands[:prm.MaxCandidates]
	}
	return cands
}

// candidateLayers returns every point's candidates, or ErrNoRoute when the
// trajectory is empty or a point has none: the layers of the dynamic
// programs below.
func candidateLayers(g *roadnet.Graph, t *traj.Trajectory, prm Params) ([][]roadnet.Candidate, error) {
	if t.Len() == 0 {
		return nil, ErrNoRoute
	}
	cands := make([][]roadnet.Candidate, t.Len())
	for i, p := range t.Points {
		if cands[i] = candidatesFor(g, p.Pt, prm); len(cands[i]) == 0 {
			return nil, ErrNoRoute
		}
	}
	return cands, nil
}

// observation is the GPS error likelihood N(dist; 0, σ) up to a constant.
func observation(dist, sigma float64) float64 {
	return math.Exp(-dist * dist / (2 * sigma * sigma))
}

// viterbi is the forward pass ST-Matching, HMM and IVMM share over the
// candidate layers: score[i][j] is the best score of a chain ending at
// candidate j of point i, back[i][j] its predecessor in layer i-1. A
// candidate takes the best step(i, pj, j, score[i-1][pj]) over the finite
// predecessors — strictly greater, so the lowest pj keeps a tie — and step
// returns -Inf for a transition that does not exist. Layer 0, and any layer
// no transition reaches (outlier tolerance), starts the chain afresh:
// score init(i, j), back -1. step receives the predecessor's score so each
// matcher keeps its own float64 evaluation order.
func viterbi(cands [][]roadnet.Candidate, init func(i, j int) float64, step func(i, pj, j int, prev float64) float64) (score [][]float64, back [][]int) {
	score = make([][]float64, len(cands))
	back = make([][]int, len(cands))
	for i := range cands {
		score[i] = make([]float64, len(cands[i]))
		back[i] = make([]int, len(cands[i]))
		dead := true
		for j := range cands[i] {
			score[i][j], back[i][j] = math.Inf(-1), -1
			if i == 0 {
				continue
			}
			for pj, prev := range score[i-1] {
				if math.IsInf(prev, -1) {
					continue
				}
				if s := step(i, pj, j, prev); s > score[i][j] {
					score[i][j], back[i][j] = s, pj
				}
			}
			dead = dead && math.IsInf(score[i][j], -1)
		}
		if dead {
			for j := range cands[i] {
				score[i][j] = init(i, j)
			}
		}
	}
	return score, back
}

// bestLocations traces the best chain back from the top-scoring last
// candidate (the lowest index on a tie) to its start and returns its
// locations in trajectory order. Points before the chain's last restart
// could not connect and are dropped.
func bestLocations(cands [][]roadnet.Candidate, score [][]float64, back [][]int) []roadnet.Location {
	n := len(cands)
	j := 0
	for k, s := range score[n-1] {
		if s > score[n-1][j] {
			j = k
		}
	}
	locs := make([]roadnet.Location, 0, n)
	for i := n - 1; j >= 0; i-- {
		c := cands[i][j]
		locs = append(locs, roadnet.Location{Edge: c.Edge, Offset: c.Offset})
		j = back[i][j]
	}
	slices.Reverse(locs)
	return locs
}

// StitchLocations connects a sequence of matched network locations into a
// single route with shortest-path bridges. Unreachable consecutive pairs
// are skipped (the later location is dropped), mirroring how practical
// matchers tolerate outliers. It fails only when no two locations connect.
func StitchLocations(g *roadnet.Graph, locs []roadnet.Location) (roadnet.Route, error) {
	var st stitcher
	for _, l := range locs {
		var part roadnet.Route
		ok := false
		if st.have {
			part, _, ok = g.PathBetweenLocations(st.cur, l)
		}
		st.step(g, l, part, ok)
	}
	if !st.have {
		return nil, ErrNoRoute
	}
	return st.route, nil
}

// stitcher grows one route location by location: the stitch step every
// matcher and the Projector share. Its route buffer is reused across runs;
// callers that keep a result copy it out.
type stitcher struct {
	route roadnet.Route
	cur   roadnet.Location // the last location joined
	have  bool             // a first location has started the route
}

// step joins l to the route. The first location starts it; a later one is
// joined over part, the path from s.cur to l (ok=false: there is none), and
// dropped — route and s.cur untouched — when no path or no connection exists.
func (s *stitcher) step(g *roadnet.Graph, l roadnet.Location, part roadnet.Route, ok bool) {
	if !s.have {
		s.route, s.cur, s.have = append(s.route[:0], l.Edge), l, true
		return
	}
	if !ok {
		return
	}
	if joined, ok := s.route.AppendConcat(g, part); ok {
		s.route, s.cur = joined, l
	}
}

// snapMode says which neighbour supplies the travel heading for a snap:
// the next point (the usual case), the previous one (last point of the
// sequence), or none (single-point sequence).
type snapMode uint8

const (
	snapLone snapMode = iota
	snapToNext
	snapFromPrev
)

// snapPoint picks the best direction-compatible candidate: heading
// agreement (cosine of the angle difference) minus a distance penalty.
func snapPoint(g *roadnet.Graph, prm Params, cands []roadnet.Candidate, p, o geo.Point, m snapMode) (roadnet.Location, bool) {
	if len(cands) == 0 {
		return roadnet.Location{}, false
	}
	best := cands[0]
	if m != snapLone {
		var heading float64
		if m == snapToNext {
			heading = p.Heading(o)
		} else {
			heading = o.Heading(p)
		}
		bestScore := math.Inf(-1)
		for _, c := range cands {
			score := math.Cos(geo.AngleDiff(heading, g.SegHeading(c.Edge))) - c.Dist/(prm.GPSSigma*4)
			if score > bestScore {
				best, bestScore = c, score
			}
		}
	}
	return roadnet.Location{Edge: best.Edge, Offset: best.Offset}, true
}
