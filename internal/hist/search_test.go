package hist

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

func searchWorld() (*Archive, []*traj.Trajectory) {
	g := roadnet.NewGrid(5, 7, 100, 15)
	trajs := []*traj.Trajectory{
		// t0: runs along y=10 through all three query points.
		lineTraj("t0", geo.Pt(0, 10), geo.Pt(150, 10), geo.Pt(300, 10), geo.Pt(450, 10)),
		// t1: parallel but 100 m away.
		lineTraj("t1", geo.Pt(0, 110), geo.Pt(150, 110), geo.Pt(300, 110), geo.Pt(450, 110)),
		// t2: touches only the first query point.
		lineTraj("t2", geo.Pt(0, 15), geo.Pt(20, 200), geo.Pt(40, 400)),
		// t3: far away entirely.
		lineTraj("t3", geo.Pt(4000, 4000), geo.Pt(4100, 4000)),
	}
	return NewArchive(g, trajs), trajs
}

func TestBestConnecting(t *testing.T) {
	a, _ := searchWorld()
	points := []geo.Point{geo.Pt(10, 0), geo.Pt(300, 0), geo.Pt(440, 0)}
	got := BestConnecting(a, points, 3, 100)
	if len(got) < 2 {
		t.Fatalf("results = %d", len(got))
	}
	if got[0].Traj != 0 {
		t.Fatalf("best connector = t%d, want t0", got[0].Traj)
	}
	if got[1].Traj != 1 {
		t.Fatalf("second = t%d, want t1", got[1].Traj)
	}
	if got[0].Score <= got[1].Score {
		t.Fatal("scores not ordered")
	}
	// t3 never appears (outside the cutoff).
	for _, r := range got {
		if r.Traj == 3 {
			t.Fatal("far trajectory ranked")
		}
	}
	// Degenerate inputs.
	if BestConnecting(a, nil, 3, 100) != nil {
		t.Fatal("nil points")
	}
	if BestConnecting(a, points, 0, 100) != nil {
		t.Fatal("k=0")
	}
}

func TestBestConnectingPartialCoverage(t *testing.T) {
	a, _ := searchWorld()
	points := []geo.Point{geo.Pt(10, 0), geo.Pt(300, 0), geo.Pt(440, 0)}
	got := BestConnecting(a, points, 4, 100)
	// t2 touches one point: present but behind t0/t1 (three points each).
	foundT2 := false
	for i, r := range got {
		if r.Traj == 2 {
			foundT2 = true
			if i < 2 {
				t.Fatal("single-point trajectory outranked full connectors")
			}
		}
	}
	if !foundT2 {
		t.Fatal("partially-connecting trajectory missing")
	}
}

func TestSimilarTrajectoriesLCSS(t *testing.T) {
	a, trajs := searchWorld()
	q := trajs[0].Clone()
	q.ID = "query"
	got := SimilarTrajectories(a, q, 2, 200, LCSSMeasure(30))
	if len(got) != 2 {
		t.Fatalf("results = %d", len(got))
	}
	if got[0].Traj != 0 || got[0].Score != 1 {
		t.Fatalf("top = t%d score %v", got[0].Traj, got[0].Score)
	}
	if got[1].Score >= got[0].Score {
		t.Fatal("second not below first")
	}
}

func TestSimilarTrajectoriesDTW(t *testing.T) {
	a, trajs := searchWorld()
	got := SimilarTrajectories(a, trajs[1], 3, 500, DTWMeasure())
	if len(got) == 0 || got[0].Traj != 1 {
		t.Fatalf("DTW top = %+v", got)
	}
	// DTW scores are negated distances: self-similarity is 0, others < 0.
	if got[0].Score != 0 {
		t.Fatalf("self DTW score = %v", got[0].Score)
	}
	if SimilarTrajectories(a, &traj.Trajectory{}, 2, 100, DTWMeasure()) != nil {
		t.Fatal("empty query")
	}
}
