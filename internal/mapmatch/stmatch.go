package mapmatch

import (
	"context"
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
	return m.match(context.Background(), t)
}

func (m *STMatcher) match(ctx context.Context, t *traj.Trajectory) (roadnet.Route, error) {
	if t.Len() == 0 {
		return nil, ErrNoRoute
	}
	cands := make([][]roadnet.Candidate, t.Len())
	for i, p := range t.Points {
		cands[i] = candidatesFor(m.G, p.Pt, m.Params)
		if len(cands[i]) == 0 {
			return nil, ErrNoRoute
		}
	}
	if t.Len() == 1 {
		return roadnet.Route{cands[0][0].Edge}, nil
	}

	// One table session serves the whole DP: consecutive point pairs share
	// candidate vertices, so the CH oracle reuses their backward cones
	// instead of re-running one search per pair (answers are identical).
	ts := m.G.NewTableSession()
	defer ts.Close()

	// DP over the candidate graph: score[i][j] = best cumulative score of a
	// path ending at candidate j of point i.
	n := t.Len()
	score := make([][]float64, n)
	back := make([][]int, n)
	score[0] = make([]float64, len(cands[0]))
	back[0] = make([]int, len(cands[0]))
	for j, c := range cands[0] {
		score[0][j] = observation(c.Dist, m.Params.GPSSigma)
		back[0][j] = -1
	}
	done := ctx.Done()
	for i := 1; i < n; i++ {
		if graphalg.Stopped(done) {
			return nil, ctx.Err()
		}
		score[i] = make([]float64, len(cands[i]))
		back[i] = make([]int, len(cands[i]))
		straight := t.Points[i-1].Pt.Dist(t.Points[i].Pt)
		dt := t.Points[i].T - t.Points[i-1].T
		for j := range score[i] {
			score[i][j] = math.Inf(-1)
			back[i][j] = -1
		}
		f := m.transitionScores(ctx, ts, cands[i-1], cands[i], straight, dt)
		for pj := range cands[i-1] {
			for j := range cands[i] {
				if math.IsInf(f[pj][j], -1) {
					continue
				}
				if s := score[i-1][pj] + f[pj][j]; s > score[i][j] {
					score[i][j] = s
					back[i][j] = pj
				}
			}
		}
		// If every transition is unreachable, restart the chain at point i
		// (outlier tolerance).
		allDead := true
		for j := range score[i] {
			if !math.IsInf(score[i][j], -1) {
				allDead = false
				break
			}
		}
		if allDead {
			for j, c := range cands[i] {
				score[i][j] = observation(c.Dist, m.Params.GPSSigma)
				back[i][j] = -1
			}
		}
	}

	// Trace back the best sequence of candidate locations.
	bestJ := 0
	for j := range score[n-1] {
		if score[n-1][j] > score[n-1][bestJ] {
			bestJ = j
		}
	}
	locs := make([]roadnet.Location, 0, n)
	j := bestJ
	for i := n - 1; i >= 0; i-- {
		c := cands[i][j]
		locs = append(locs, roadnet.Location{Edge: c.Edge, Offset: c.Offset})
		if back[i][j] == -1 && i > 0 {
			// Chain restart: drop earlier points (they could not connect).
			break
		}
		j = back[i][j]
	}
	// Reverse into forward order.
	for a, b := 0, len(locs)-1; a < b; a, b = a+1, b-1 {
		locs[a], locs[b] = locs[b], locs[a]
	}
	return stitchLocations(ctx, m.G, locs)
}

// transitionScores returns the ST-Matching transition matrix f[pj][j]:
// the score for entering candidate j of the current point from candidate
// pj of the previous one. Network distances come from a single batched
// oracle probe per point pair (candidateDistTable) instead of one full
// Dijkstra per previous candidate; unreachable transitions are explicit
// -Inf entries, and neither the transmission term nor the temporal
// speed-constraint cosine (with its denominator) is computed for them.
// The observation term and the speed-limit lookups are hoisted out of the
// transition loop.
func (m *STMatcher) transitionScores(ctx context.Context, ts graphalg.TableSession, prev, cur []roadnet.Candidate, straight, dt float64) [][]float64 {
	f := candidateDistTable(ctx, m.G, ts, prev, cur)
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
// prev to every candidate of cur (+Inf when unreachable), resolving the
// vertex-to-vertex legs with one batched table query through ts.
func candidateDistTable(ctx context.Context, g *roadnet.Graph, ts graphalg.TableSession, prev, cur []roadnet.Candidate) [][]float64 {
	srcs := make([]roadnet.VertexID, len(prev))
	for pj, pc := range prev {
		srcs[pj] = g.Seg(pc.Edge).To
	}
	dsts := make([]roadnet.VertexID, len(cur))
	for j, c := range cur {
		dsts[j] = g.Seg(c.Edge).From
	}
	tbl := ts.TableCtx(ctx, srcs, dsts)
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
