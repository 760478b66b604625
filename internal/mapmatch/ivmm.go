package mapmatch

import (
	"context"
	"math"

	"repro/internal/graphalg"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// IVMM implements the Interactive Voting-based Map Matching algorithm
// [Yuan et al. 2010]. On top of ST-Matching's static scores it models the
// mutual influence between GPS points: for every point i, all transition
// scores are re-weighted by the distance between their points and p_i,
// a constrained Viterbi pass is run for each candidate of p_i, and the
// winning sequences vote; each point finally keeps its most-voted
// candidate.
type IVMM struct {
	G      *roadnet.Graph
	Params Params
	// Beta is the distance-decay scale of the mutual-influence weight
	// w(i,t) = exp(-(d(p_i,p_t)/Beta)^2).
	Beta float64
}

// NewIVMM returns an IVMM matcher on g.
func NewIVMM(g *roadnet.Graph, prm Params) *IVMM {
	return &IVMM{G: g, Params: prm, Beta: 5000}
}

// Name implements Matcher.
func (m *IVMM) Name() string { return "ivmm" }

// Match implements Matcher.
func (m *IVMM) Match(t *traj.Trajectory) (roadnet.Route, error) {
	return m.match(context.Background(), t)
}

func (m *IVMM) match(ctx context.Context, t *traj.Trajectory) (roadnet.Route, error) {
	n := t.Len()
	if n == 0 {
		return nil, ErrNoRoute
	}
	cands := make([][]roadnet.Candidate, n)
	for i, p := range t.Points {
		cands[i] = candidatesFor(m.G, p.Pt, m.Params)
		if len(cands[i]) == 0 {
			return nil, ErrNoRoute
		}
	}
	if n == 1 {
		return roadnet.Route{cands[0][0].Edge}, nil
	}

	// Static score tensor F[i][pj][j]: transitioning into candidate j of
	// point i from candidate pj of point i-1 (observation × transmission ×
	// temporal), with unreachable transitions at -Inf.
	F := make([][][]float64, n)
	st := &STMatcher{G: m.G, Params: m.Params}
	ts := m.G.NewTableSession()
	done := ctx.Done()
	for i := 1; i < n; i++ {
		if graphalg.Stopped(done) {
			ts.Close()
			return nil, ctx.Err()
		}
		straight := t.Points[i-1].Pt.Dist(t.Points[i].Pt)
		dt := t.Points[i].T - t.Points[i-1].T
		F[i] = st.transitionScores(ctx, ts, cands[i-1], cands[i], straight, dt)
	}
	ts.Close()

	// Interactive voting.
	votes := make([][]int, n)
	for i := range votes {
		votes[i] = make([]int, len(cands[i]))
	}
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		if graphalg.Stopped(done) {
			return nil, ctx.Err()
		}
		for tt := 0; tt < n; tt++ {
			d := t.Points[i].Pt.Dist(t.Points[tt].Pt)
			weights[tt] = math.Exp(-(d / m.Beta) * (d / m.Beta))
		}
		for j := range cands[i] {
			seq := m.constrainedViterbi(cands, F, weights, i, j)
			if seq == nil {
				continue
			}
			for p, c := range seq {
				votes[p][c]++
			}
		}
	}

	// Keep the most-voted candidate per point (ties: better observation).
	locs := make([]roadnet.Location, 0, n)
	for i := range cands {
		best := 0
		for j := 1; j < len(cands[i]); j++ {
			if votes[i][j] > votes[i][best] ||
				(votes[i][j] == votes[i][best] && cands[i][j].Dist < cands[i][best].Dist) {
				best = j
			}
		}
		locs = append(locs, roadnet.Location{Edge: cands[i][best].Edge, Offset: cands[i][best].Offset})
	}
	return stitchLocations(ctx, m.G, locs)
}

// constrainedViterbi finds the best candidate sequence subject to point
// fixI using candidate fixJ, with each transition's contribution scaled by
// the mutual-influence weight of its target point. Returns nil when no
// valid sequence exists.
func (m *IVMM) constrainedViterbi(cands [][]roadnet.Candidate, F [][][]float64, weights []float64, fixI, fixJ int) []int {
	n := len(cands)
	score := make([][]float64, n)
	back := make([][]int, n)
	for i := range score {
		score[i] = make([]float64, len(cands[i]))
		back[i] = make([]int, len(cands[i]))
	}
	for j, c := range cands[0] {
		if fixI == 0 && j != fixJ {
			score[0][j] = math.Inf(-1)
		} else {
			score[0][j] = weights[0] * observation(c.Dist, m.Params.GPSSigma)
		}
		back[0][j] = -1
	}
	for i := 1; i < n; i++ {
		for j := range cands[i] {
			score[i][j] = math.Inf(-1)
			back[i][j] = -1
			if fixI == i && j != fixJ {
				continue
			}
			for pj := range cands[i-1] {
				if math.IsInf(score[i-1][pj], -1) || math.IsInf(F[i][pj][j], -1) {
					continue
				}
				if s := score[i-1][pj] + weights[i]*F[i][pj][j]; s > score[i][j] {
					score[i][j] = s
					back[i][j] = pj
				}
			}
		}
		// Dead layer: restart (outlier tolerance), respecting the fix.
		allDead := true
		for j := range score[i] {
			if !math.IsInf(score[i][j], -1) {
				allDead = false
				break
			}
		}
		if allDead {
			for j, c := range cands[i] {
				if fixI == i && j != fixJ {
					continue
				}
				score[i][j] = weights[i] * observation(c.Dist, m.Params.GPSSigma)
				back[i][j] = -1
			}
		}
	}
	bestJ, bestS := -1, math.Inf(-1)
	for j, s := range score[n-1] {
		if s > bestS {
			bestJ, bestS = j, s
		}
	}
	if bestJ < 0 {
		return nil
	}
	seq := make([]int, n)
	j := bestJ
	for i := n - 1; i >= 0; i-- {
		seq[i] = j
		if back[i][j] == -1 {
			// Either the chain start or a restart; earlier points keep
			// their own best local candidates.
			for k := i - 1; k >= 0; k-- {
				bk := 0
				for jj := range score[k] {
					if score[k][jj] > score[k][bk] {
						bk = jj
					}
				}
				if k == fixI {
					bk = fixJ // the fixed candidate survives restarts
				}
				seq[k] = bk
			}
			break
		}
		j = back[i][j]
	}
	return seq
}
