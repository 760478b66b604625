package traj

import "math/rand"

// Downsample returns a copy of t keeping the first point and then every
// sample at least interval seconds after the last kept one, emulating a
// low-sampling-rate sensor reading the same movement (the paper's queries
// are "re-sampled to the desired sampling rates from trajectories ...
// initially high-sampling-rate", §IV-B). The final point is always kept so
// the trip's destination survives.
func Downsample(t *Trajectory, interval float64) *Trajectory {
	if len(t.Points) == 0 || interval <= 0 {
		return t.Clone()
	}
	out := &Trajectory{ID: t.ID}
	last := -1.0
	kept := -1 // index of the last kept sample
	for i, p := range t.Points {
		if i == 0 || p.T-last >= interval {
			out.Points = append(out.Points, p)
			last = p.T
			kept = i
		}
	}
	// Compare by index, not timestamp: two distinct points can share the
	// final timestamp, and a .T comparison would silently drop the true
	// destination in that case.
	if kept != len(t.Points)-1 {
		out.Points = append(out.Points, t.Points[len(t.Points)-1])
	}
	return out
}

// AddNoise returns a copy of t with zero-mean Gaussian noise of the given
// standard deviation (meters, per axis) added to every point, modeling GPS
// measurement error.
func AddNoise(t *Trajectory, sigma float64, rng *rand.Rand) *Trajectory {
	out := t.Clone()
	for i := range out.Points {
		out.Points[i].Pt.X += rng.NormFloat64() * sigma
		out.Points[i].Pt.Y += rng.NormFloat64() * sigma
	}
	return out
}
