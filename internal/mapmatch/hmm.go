package mapmatch

import (
	"context"
	"math"

	"repro/internal/graphalg"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// HMM implements the Newson–Krumm hidden-Markov-model matcher ("Hidden
// Markov map matching through noise and sparseness", ACM GIS 2009) as an
// extension baseline beyond the paper's three competitors. Emission
// probabilities are Gaussian in the projection distance; transition
// probabilities are exponential in the absolute difference between the
// straight-line and network distances of consecutive points; the Viterbi
// path maximizes the joint log-likelihood.
type HMM struct {
	G      *roadnet.Graph
	Params Params
	// Beta is the exponential scale of the transition model; Newson and
	// Krumm estimate it from data as the median |route − great-circle|
	// difference. Their published value for 30 s data is ~2 m; sparser
	// trajectories need a larger scale.
	Beta float64
}

// NewHMM returns a Newson–Krumm matcher on g.
func NewHMM(g *roadnet.Graph, prm Params) *HMM {
	return &HMM{G: g, Params: prm, Beta: 50}
}

// Name implements Matcher.
func (m *HMM) Name() string { return "hmm" }

// Match implements Matcher.
func (m *HMM) Match(t *traj.Trajectory) (roadnet.Route, error) {
	return m.match(context.Background(), t)
}

func (m *HMM) match(ctx context.Context, t *traj.Trajectory) (roadnet.Route, error) {
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

	logEmission := func(c roadnet.Candidate) float64 {
		return -c.Dist * c.Dist / (2 * m.Params.GPSSigma * m.Params.GPSSigma)
	}
	score := make([][]float64, n)
	back := make([][]int, n)
	score[0] = make([]float64, len(cands[0]))
	back[0] = make([]int, len(cands[0]))
	for j, c := range cands[0] {
		score[0][j] = logEmission(c)
		back[0][j] = -1
	}
	ts := m.G.NewTableSession()
	defer ts.Close()
	done := ctx.Done()
	for i := 1; i < n; i++ {
		if graphalg.Stopped(done) {
			return nil, ctx.Err()
		}
		straight := t.Points[i-1].Pt.Dist(t.Points[i].Pt)
		score[i] = make([]float64, len(cands[i]))
		back[i] = make([]int, len(cands[i]))
		for j := range score[i] {
			score[i][j] = math.Inf(-1)
			back[i][j] = -1
		}
		wtbl := candidateDistTable(ctx, m.G, ts, cands[i-1], cands[i])
		for pj := range cands[i-1] {
			if math.IsInf(score[i-1][pj], -1) {
				continue
			}
			for j, c := range cands[i] {
				w := wtbl[pj][j]
				if math.IsInf(w, 1) {
					continue
				}
				// Newson–Krumm transition: exp(-|d_route − d_line|/β).
				logTrans := -math.Abs(w-straight) / m.Beta
				if s := score[i-1][pj] + logTrans + logEmission(c); s > score[i][j] {
					score[i][j] = s
					back[i][j] = pj
				}
			}
		}
		// HMM break (their "broken" handling): restart on a dead layer.
		allDead := true
		for j := range score[i] {
			if !math.IsInf(score[i][j], -1) {
				allDead = false
				break
			}
		}
		if allDead {
			for j, c := range cands[i] {
				score[i][j] = logEmission(c)
				back[i][j] = -1
			}
		}
	}
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
			break
		}
		j = back[i][j]
	}
	for a, b := 0, len(locs)-1; a < b; a, b = a+1, b-1 {
		locs[a], locs[b] = locs[b], locs[a]
	}
	return stitchLocations(ctx, m.G, locs)
}
