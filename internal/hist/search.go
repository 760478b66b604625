package hist

import (
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/traj"
)

// Ranked is a scored archive trajectory returned by the search utilities.
type Ranked struct {
	Traj  int // index into the archive's trajectory list
	Score float64
}

// sortRanked orders by score descending, breaking ties canonically by
// trajectory content (storage index last) so rankings are independent of
// ingestion order.
func sortRanked(v View, ranked []Ranked) {
	keys := make(map[int]canonKey, len(ranked))
	for _, r := range ranked {
		keys[r.Traj] = canonKeyOf(v.Traj(r.Traj))
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Score != ranked[j].Score {
			return ranked[i].Score > ranked[j].Score
		}
		if c := keys[ranked[i].Traj].compare(keys[ranked[j].Traj]); c != 0 {
			return c < 0
		}
		return ranked[i].Traj < ranked[j].Traj
	})
}

// BestConnecting implements the k-BCT query of Chen et al. [SIGMOD 2010]
// discussed in the paper's related work (§V): find the k archive
// trajectories that best connect the given query locations. A trajectory's
// score is Σ_q exp(−d(q, T)) over the query points, where d(q, T) is the
// distance from q to T's nearest sample (distances scaled by the decay
// parameter, meters). The R-tree prunes to trajectories with at least one
// sample within the cutoff radius of some query point. An empty archive
// yields nil.
func BestConnecting(v View, points []geo.Point, k int, decay float64) []Ranked {
	if k <= 0 || len(points) == 0 || decay <= 0 || v.NumTrajs() == 0 {
		return nil
	}
	// exp(-r/decay) < 1e-4 contributes nothing: cutoff at ~9.2 decays.
	cutoff := 9.2 * decay
	// nearest[t][i] = min distance from query point i to trajectory t.
	nearest := make(map[int][]float64)
	for i, q := range points {
		v.VisitBox(geo.BBoxAround(q, cutoff), func(ref PointRef) bool {
			d := v.Point(ref).Pt.Dist(q)
			if d > cutoff {
				return true
			}
			row, ok := nearest[ref.Traj]
			if !ok {
				row = make([]float64, len(points))
				for j := range row {
					row[j] = math.Inf(1)
				}
				nearest[ref.Traj] = row
			}
			if d < row[i] {
				row[i] = d
			}
			return true
		})
	}
	ranked := make([]Ranked, 0, len(nearest))
	for t, row := range nearest {
		var score float64
		for _, d := range row {
			if !math.IsInf(d, 1) {
				score += math.Exp(-d / decay)
			}
		}
		ranked = append(ranked, Ranked{Traj: t, Score: score})
	}
	sortRanked(v, ranked)
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}

// SimilarityMeasure scores a candidate archive trajectory against a query
// (higher = more similar), as used by SimilarTrajectories.
type SimilarityMeasure func(query, candidate *traj.Trajectory) float64

// LCSSMeasure adapts traj.LCSS as a SimilarityMeasure.
func LCSSMeasure(eps float64) SimilarityMeasure {
	return func(q, c *traj.Trajectory) float64 { return traj.LCSS(q, c, eps) }
}

// DTWMeasure adapts traj.DTW (negated, so higher is more similar).
func DTWMeasure() SimilarityMeasure {
	return func(q, c *traj.Trajectory) float64 { return -traj.DTW(q, c) }
}

// SimilarTrajectories returns the k archive trajectories most similar to
// the query under the given measure. Candidates are pruned with an R-tree
// range query over the query's bounding box expanded by radius (the same
// point index BestConnecting uses), so only trajectories with at least one
// sample in that box reach the (more expensive) measure. A negative radius
// selects nothing and yields nil, matching the kNN r<0 convention.
func SimilarTrajectories(v View, q *traj.Trajectory, k int, radius float64, m SimilarityMeasure) []Ranked {
	if k <= 0 || q.Len() == 0 || radius < 0 {
		return nil
	}
	box := q.BBox()
	box.Min = box.Min.Add(geo.Pt(-radius, -radius))
	box.Max = box.Max.Add(geo.Pt(radius, radius))
	cands := make(map[int]bool)
	v.VisitBox(box, func(r PointRef) bool {
		cands[r.Traj] = true
		return true
	})
	ranked := make([]Ranked, 0, len(cands))
	for ti := range cands {
		ranked = append(ranked, Ranked{Traj: ti, Score: m(q, v.Traj(ti))})
	}
	sortRanked(v, ranked)
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}
