// Package traj models GPS trajectories (Definition 1) and the archive
// preprocessing steps of §II-B.1: stay-point detection, trip partition,
// resampling to a target sampling interval, and GPS noise injection.
//
// Timestamps are float64 seconds (since an arbitrary epoch); all distances
// are meters, matching the planar coordinates of package geo.
package traj

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// LowRateThreshold is the sampling interval above which the paper considers
// a trajectory low-sampling-rate (ΔT > 2 min, §II-A).
const LowRateThreshold = 120.0

// GPSPoint is one time-stamped location sample.
type GPSPoint struct {
	Pt geo.Point
	T  float64 // seconds
}

// Trajectory is a time-ordered sequence of GPS points (Definition 1).
type Trajectory struct {
	ID     string
	Points []GPSPoint
}

// Len returns the number of points.
func (t *Trajectory) Len() int { return len(t.Points) }

// Duration returns the elapsed time from first to last point in seconds.
func (t *Trajectory) Duration() float64 {
	if len(t.Points) < 2 {
		return 0
	}
	return t.Points[len(t.Points)-1].T - t.Points[0].T
}

// PathLength returns the length of the polyline through the sample points.
func (t *Trajectory) PathLength() float64 {
	var l float64
	for i := 1; i < len(t.Points); i++ {
		l += t.Points[i-1].Pt.Dist(t.Points[i].Pt)
	}
	return l
}

// AvgInterval returns the mean time between consecutive samples (0 for
// fewer than two points).
func (t *Trajectory) AvgInterval() float64 {
	if len(t.Points) < 2 {
		return 0
	}
	return t.Duration() / float64(len(t.Points)-1)
}

// IsLowSamplingRate reports whether the average sampling interval exceeds
// the paper's 2-minute threshold.
func (t *Trajectory) IsLowSamplingRate() bool {
	return t.AvgInterval() > LowRateThreshold
}

// NearestPointIndex returns the index of nn(q, T), the sample closest to q
// (Definition 6), or -1 for an empty trajectory.
func (t *Trajectory) NearestPointIndex(q geo.Point) int {
	best, bestD2 := -1, math.Inf(1)
	for i := range t.Points {
		if d2 := t.Points[i].Pt.Dist2(q); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best
}

// Validate checks that timestamps strictly increase.
func (t *Trajectory) Validate() error {
	for i := 1; i < len(t.Points); i++ {
		if t.Points[i].T <= t.Points[i-1].T {
			return fmt.Errorf("trajectory %s: non-increasing time at %d", t.ID, i)
		}
	}
	return nil
}

// Clone returns a deep copy of the trajectory.
func (t *Trajectory) Clone() *Trajectory {
	return &Trajectory{ID: t.ID, Points: append([]GPSPoint(nil), t.Points...)}
}
