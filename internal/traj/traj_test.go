package traj

import (
	"math"
	"testing"

	"repro/internal/geo"
)

func mkTraj(id string, pts ...[3]float64) *Trajectory {
	t := &Trajectory{ID: id}
	for _, p := range pts {
		t.Points = append(t.Points, GPSPoint{Pt: geo.Pt(p[0], p[1]), T: p[2]})
	}
	return t
}

func TestTrajectoryBasics(t *testing.T) {
	tr := mkTraj("a", [3]float64{0, 0, 0}, [3]float64{100, 0, 30}, [3]float64{100, 100, 90})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Duration() != 90 {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	if tr.PathLength() != 200 {
		t.Fatalf("PathLength = %v", tr.PathLength())
	}
	if tr.AvgInterval() != 45 {
		t.Fatalf("AvgInterval = %v", tr.AvgInterval())
	}
	if tr.IsLowSamplingRate() {
		t.Fatal("45s interval is not low rate")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestLowSamplingRateThreshold(t *testing.T) {
	tr := mkTraj("a", [3]float64{0, 0, 0}, [3]float64{100, 0, 300})
	if !tr.IsLowSamplingRate() {
		t.Fatal("5-minute interval should be low rate")
	}
}

func TestDegenerateTrajectories(t *testing.T) {
	empty := &Trajectory{ID: "e"}
	if empty.Duration() != 0 || empty.PathLength() != 0 || empty.AvgInterval() != 0 {
		t.Fatal("empty trajectory stats nonzero")
	}
	if empty.NearestPointIndex(geo.Pt(0, 0)) != -1 {
		t.Fatal("NearestPointIndex on empty should be -1")
	}
	single := mkTraj("s", [3]float64{1, 2, 3})
	if single.Duration() != 0 || single.AvgInterval() != 0 {
		t.Fatal("single-point stats")
	}
	if err := single.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNonIncreasingTime(t *testing.T) {
	bad := mkTraj("b", [3]float64{0, 0, 10}, [3]float64{1, 1, 10})
	if err := bad.Validate(); err == nil {
		t.Fatal("equal timestamps accepted")
	}
}

func TestNearestPointIndex(t *testing.T) {
	tr := mkTraj("a", [3]float64{0, 0, 0}, [3]float64{50, 0, 10}, [3]float64{100, 0, 20})
	if i := tr.NearestPointIndex(geo.Pt(60, 5)); i != 1 {
		t.Fatalf("NearestPointIndex = %d", i)
	}
	if i := tr.NearestPointIndex(geo.Pt(-10, 0)); i != 0 {
		t.Fatalf("NearestPointIndex = %d", i)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := mkTraj("a", [3]float64{0, 0, 0}, [3]float64{1, 0, 1})
	c := tr.Clone()
	c.Points[0].Pt.X = 99
	if tr.Points[0].Pt.X == 99 {
		t.Fatal("Clone shares points")
	}
}

func TestPathLengthNonNegativeAndAdditive(t *testing.T) {
	tr := mkTraj("a",
		[3]float64{0, 0, 0}, [3]float64{3, 4, 10}, [3]float64{3, 4, 20}, [3]float64{6, 8, 30})
	if got := tr.PathLength(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("PathLength = %v", got)
	}
}
