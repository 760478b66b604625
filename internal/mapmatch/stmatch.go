package mapmatch

import (
	"math"

	"repro/internal/graphalg"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// STMatcher implements ST-Matching [Lou et al. 2009]: a candidate graph is
// built over the per-point candidate edges; spatial analysis combines the
// GPS-error observation probability with a transmission probability
// (straight-line over network distance), temporal analysis compares the
// implied travel speed with the segment speed limits, and the best
// candidate sequence is found by dynamic programming.
type STMatcher struct {
	G      *roadnet.Graph
	Params Params
	// SkipTemporal disables the temporal term; used when timestamps are
	// synthetic (e.g. matching bare point sequences).
	SkipTemporal bool
}

// NewSTMatcher returns an ST-Matching matcher on g.
func NewSTMatcher(g *roadnet.Graph, prm Params) *STMatcher {
	return &STMatcher{G: g, Params: prm}
}

// Name implements Matcher.
func (m *STMatcher) Name() string { return "st-matching" }

// Match implements Matcher.
func (m *STMatcher) Match(t *traj.Trajectory) (roadnet.Route, error) {
	cands, err := candidateLayers(m.G, t, m.Params)
	if err != nil {
		return nil, err
	}
	F := m.transitions(t, cands)
	score, back := viterbi(cands, func(i, j int) float64 {
		return observation(cands[i][j].Dist, m.Params.GPSSigma)
	}, func(i, pj, j int, prev float64) float64 {
		return prev + F[i][pj][j]
	})
	return StitchLocations(m.G, bestLocations(cands, score, back))
}

// transitions returns the static score tensor F[i][pj][j] (F[0] is nil):
// the transitionScores of every consecutive point pair.
func (m *STMatcher) transitions(t *traj.Trajectory, cands [][]roadnet.Candidate) [][][]float64 {
	F := make([][][]float64, len(cands))
	for i := 1; i < len(cands); i++ {
		straight := t.Points[i-1].Pt.Dist(t.Points[i].Pt)
		dt := t.Points[i].T - t.Points[i-1].T
		F[i] = m.transitionScores(cands[i-1], cands[i], straight, dt)
	}
	return F
}

// transitionScores returns the ST-Matching transition matrix f[pj][j]:
// the score for entering candidate j of the current point from candidate
// pj of the previous one. Network distances come from one distance table
// per point pair (candidateDistTable); unreachable transitions are explicit
// -Inf entries, and neither the transmission term nor the temporal
// speed-constraint cosine (with its denominator) is computed for them.
// The observation term and the speed-limit lookups are hoisted out of the
// transition loop.
func (m *STMatcher) transitionScores(prev, cur []roadnet.Candidate, straight, dt float64) [][]float64 {
	f := candidateDistTable(m.G, prev, cur)
	obs := make([]float64, len(cur))
	u2 := make([]float64, len(cur))
	for j, c := range cur {
		obs[j] = observation(c.Dist, m.Params.GPSSigma)
		u2[j] = m.G.Seg(c.Edge).Speed
	}
	for pj, pc := range prev {
		u1 := m.G.Seg(pc.Edge).Speed
		row := f[pj]
		for j := range cur {
			w := row[j]
			if math.IsInf(w, 1) {
				row[j] = math.Inf(-1)
				continue
			}
			s := obs[j] * transmission(straight, w)
			if !m.SkipTemporal && dt > 0 && w > 0 {
				s *= temporalCos(u1, u2[j], w/dt)
			}
			row[j] = s
		}
	}
	return f
}

// candidateDistTable returns the driving distance from every candidate of
// prev to every candidate of cur (+Inf when unreachable). The
// vertex-to-vertex legs come from one graphalg.DistanceTable: a Dijkstra per
// previous candidate that stops once every current candidate's start vertex
// has settled, so each search reaches only as far as the gap between the two
// fixes demands.
func candidateDistTable(g *roadnet.Graph, prev, cur []roadnet.Candidate) [][]float64 {
	srcs := make([]roadnet.VertexID, len(prev))
	for pj, pc := range prev {
		srcs[pj] = g.Seg(pc.Edge).To
	}
	dsts := make([]roadnet.VertexID, len(cur))
	for j, c := range cur {
		dsts[j] = g.Seg(c.Edge).From
	}
	tbl := graphalg.DistanceTable(g.VertexGraph(), srcs, dsts)
	for pj, pc := range prev {
		sa := g.Seg(pc.Edge)
		row := tbl[pj]
		for j, c := range cur {
			if pc.Edge == c.Edge && c.Offset >= pc.Offset {
				row[j] = c.Offset - pc.Offset
				continue
			}
			if math.IsInf(row[j], 1) {
				continue
			}
			row[j] = (sa.Length - pc.Offset) + row[j] + c.Offset
		}
	}
	return tbl
}

// transmission is the ST-Matching transmission probability: straight-line
// distance over network distance, capped at 1.
func transmission(straight, network float64) float64 {
	if network <= 0 {
		return 1
	}
	v := straight / network
	if v > 1 {
		v = 1
	}
	return v
}

// temporalCos is the ST-Matching temporal analysis term: the cosine
// similarity between the speed-limit vector along the transition (sampled
// at the two endpoint segments, u1 and u2 — the paper uses every segment
// on the sub-path, which the two ends dominate for the short transitions
// map-matching sees) and the constant actual travel speed. Transitions
// whose implied speed matches the road class score higher.
func temporalCos(u1, u2, actualSpeed float64) float64 {
	num := u1*actualSpeed + u2*actualSpeed
	den := math.Sqrt(u1*u1+u2*u2) * math.Sqrt(2*actualSpeed*actualSpeed)
	if den == 0 {
		return 1
	}
	return num / den
}
