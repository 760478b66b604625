package mapmatch

import (
	"math"

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
	cands, err := candidateLayers(m.G, t, m.Params)
	if err != nil {
		return nil, err
	}
	W := make([][][]float64, len(cands))
	for i := 1; i < len(cands); i++ {
		W[i] = candidateDistTable(m.G, cands[i-1], cands[i])
	}
	logEmission := func(i, j int) float64 {
		c := cands[i][j]
		return -c.Dist * c.Dist / (2 * m.Params.GPSSigma * m.Params.GPSSigma)
	}
	// A dead layer restarts the chain: their "broken" HMM handling.
	score, back := viterbi(cands, logEmission, func(i, pj, j int, prev float64) float64 {
		w := W[i][pj][j]
		if math.IsInf(w, 1) {
			return math.Inf(-1)
		}
		// Newson–Krumm transition: exp(-|d_route − d_line|/β).
		logTrans := -math.Abs(w-t.Points[i-1].Pt.Dist(t.Points[i].Pt)) / m.Beta
		return prev + logTrans + logEmission(i, j)
	})
	return StitchLocations(m.G, bestLocations(cands, score, back))
}
