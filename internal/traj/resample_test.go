package traj

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func denseTraj(n int, dt float64) *Trajectory {
	tr := &Trajectory{ID: "d"}
	for i := 0; i < n; i++ {
		tr.Points = append(tr.Points, GPSPoint{Pt: geo.Pt(float64(i)*10, 0), T: float64(i) * dt})
	}
	return tr
}

func TestDownsampleInterval(t *testing.T) {
	tr := denseTraj(100, 20) // 20s interval, ~33 min
	out := Downsample(tr, 180)
	if out.Len() >= tr.Len() {
		t.Fatalf("no reduction: %d", out.Len())
	}
	// Every consecutive gap except possibly the last must be >= interval.
	for i := 1; i < out.Len()-1; i++ {
		if gap := out.Points[i].T - out.Points[i-1].T; gap < 180 {
			t.Fatalf("gap %d = %v < 180", i, gap)
		}
	}
	// Endpoints preserved.
	if out.Points[0] != tr.Points[0] || out.Points[out.Len()-1] != tr.Points[tr.Len()-1] {
		t.Fatal("endpoints not preserved")
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDownsampleNoopCases(t *testing.T) {
	tr := denseTraj(5, 20)
	if out := Downsample(tr, 0); out.Len() != 5 {
		t.Fatal("interval<=0 should clone")
	}
	if out := Downsample(&Trajectory{}, 60); out.Len() != 0 {
		t.Fatal("empty input")
	}
	// Interval smaller than native rate keeps everything.
	if out := Downsample(tr, 10); out.Len() != 5 {
		t.Fatalf("kept %d of 5", out.Len())
	}
}

func TestDownsampleAvgIntervalGrows(t *testing.T) {
	tr := denseTraj(200, 20)
	for _, iv := range []float64{60, 180, 300, 600} {
		out := Downsample(tr, iv)
		if out.Len() > 2 && out.AvgInterval() < iv*0.8 {
			t.Fatalf("interval %v: avg %v too small", iv, out.AvgInterval())
		}
	}
}

func TestAddNoise(t *testing.T) {
	tr := denseTraj(500, 20)
	rng := rand.New(rand.NewSource(5))
	noisy := AddNoise(tr, 20, rng)
	if noisy.Len() != tr.Len() {
		t.Fatal("length changed")
	}
	var sum, sum2 float64
	for i := range noisy.Points {
		d := noisy.Points[i].Pt.Dist(tr.Points[i].Pt)
		sum += d
		sum2 += d * d
		if noisy.Points[i].T != tr.Points[i].T {
			t.Fatal("timestamps changed")
		}
	}
	// Mean displacement of 2D Gaussian with sigma=20 is sigma*sqrt(pi/2) ≈ 25.
	mean := sum / float64(noisy.Len())
	if mean < 15 || mean > 35 {
		t.Fatalf("mean displacement = %v", mean)
	}
	// Original untouched.
	if tr.Points[0].Pt != geo.Pt(0, 0) {
		t.Fatal("AddNoise mutated input")
	}
}

func TestAddNoiseZeroSigma(t *testing.T) {
	tr := denseTraj(10, 20)
	rng := rand.New(rand.NewSource(1))
	out := AddNoise(tr, 0, rng)
	for i := range out.Points {
		if out.Points[i].Pt != tr.Points[i].Pt {
			t.Fatal("zero sigma moved points")
		}
	}
}

// TestDownsampleDuplicateTailTimestamp: when two distinct points share the
// final timestamp, the true destination (the last point by position) must
// survive — the old timestamp-equality dedup silently dropped it.
func TestDownsampleDuplicateTailTimestamp(t *testing.T) {
	tr := denseTraj(20, 30)
	// A second, spatially distinct sample at the same final timestamp.
	last := tr.Points[tr.Len()-1]
	tr.Points = append(tr.Points, GPSPoint{Pt: geo.Pt(last.Pt.X+500, 120), T: last.T})
	out := Downsample(tr, 90)
	gotTail := out.Points[out.Len()-1]
	wantTail := tr.Points[tr.Len()-1]
	if gotTail != wantTail {
		t.Fatalf("destination dropped: tail %+v, want %+v", gotTail, wantTail)
	}
}

// TestDownsampleTailNotDuplicated: when the regular cadence already keeps
// the final point, it must not be appended twice.
func TestDownsampleTailNotDuplicated(t *testing.T) {
	tr := denseTraj(10, 100)
	out := Downsample(tr, 100) // every sample kept, tail included
	if out.Len() != tr.Len() {
		t.Fatalf("len = %d, want %d", out.Len(), tr.Len())
	}
	n := out.Len()
	if n >= 2 && out.Points[n-1] == out.Points[n-2] {
		t.Fatal("tail duplicated")
	}
}
