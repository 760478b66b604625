package mapmatch

import (
	"math"

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
	cands, err := candidateLayers(m.G, t, m.Params)
	if err != nil {
		return nil, err
	}
	n := len(cands)
	// Static score tensor F[i][pj][j]: transitioning into candidate j of
	// point i from candidate pj of point i-1 (observation × transmission ×
	// temporal), with unreachable transitions at -Inf.
	F := (&STMatcher{G: m.G, Params: m.Params}).transitions(t, cands)

	// Interactive voting.
	votes := make([][]int, n)
	for i := range votes {
		votes[i] = make([]int, len(cands[i]))
	}
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
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
	return StitchLocations(m.G, locs)
}

// constrainedViterbi finds the best candidate sequence subject to point
// fixI using candidate fixJ, with each transition's contribution scaled by
// the mutual-influence weight of its target point. Returns nil when no
// valid sequence exists.
func (m *IVMM) constrainedViterbi(cands [][]roadnet.Candidate, F [][][]float64, weights []float64, fixI, fixJ int) []int {
	n := len(cands)
	score, back := viterbi(cands, func(i, j int) float64 {
		if i == fixI && j != fixJ {
			return math.Inf(-1)
		}
		return weights[i] * observation(cands[i][j].Dist, m.Params.GPSSigma)
	}, func(i, pj, j int, prev float64) float64 {
		if i == fixI && j != fixJ || math.IsInf(F[i][pj][j], -1) {
			return math.Inf(-1)
		}
		return prev + weights[i]*F[i][pj][j]
	})
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
