package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/traj"
)

func TestInferPathsNetworkFree(t *testing.T) {
	w := newWorld(t, 400, 91)
	qc, ok := w.ds.GenQuery(7000, 240, 15, w.cfg, w.rng)
	if !ok {
		t.Fatal("GenQuery failed")
	}
	truth := qc.Truth.Points(w.g)
	paths, err := w.eng.InferPathsNetworkFreeCtx(context.Background(), qc.Query, w.p, w.g.MaxSpeed())
	if err != nil {
		t.Fatalf("InferPathsNetworkFreeCtx: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// Scores sorted.
	for i := 1; i < len(paths); i++ {
		if paths[i].Score > paths[i-1].Score+1e-12 {
			t.Fatal("paths not sorted by score")
		}
	}
	// The inferred polyline tracks the truth better than straight-line
	// interpolation of the sparse query points.
	var straight geo.Polyline
	for _, p := range qc.Query.Points {
		straight = append(straight, p.Pt)
	}
	devInferred := geo.Deviation(truth, paths[0].Path, 50)
	devStraight := geo.Deviation(truth, straight, 50)
	t.Logf("deviation: inferred %.0f m, straight-line %.0f m", devInferred, devStraight)
	if devInferred > devStraight {
		t.Errorf("network-free path (%.0f m) worse than straight interpolation (%.0f m)",
			devInferred, devStraight)
	}
	// Path endpoints bracket the query.
	first, last := paths[0].Path[0], paths[0].Path[len(paths[0].Path)-1]
	if first.Dist(qc.Query.Points[0].Pt) > 1 {
		t.Error("path does not start at the query start")
	}
	if last.Dist(qc.Query.Points[qc.Query.Len()-1].Pt) > 1 {
		t.Error("path does not end at the query end")
	}
}

func TestInferPathsNetworkFreeEmptyArchive(t *testing.T) {
	w := newWorld(t, 400, 93)
	qc, ok := w.ds.GenQuery(5000, 300, 15, w.cfg, w.rng)
	if !ok {
		t.Fatal("GenQuery failed")
	}
	empty := NewEngine(hist.NewArchive(w.g, nil), w.p)
	paths, err := empty.InferPathsNetworkFreeCtx(context.Background(), qc.Query, w.p, w.g.MaxSpeed())
	if err != nil {
		t.Fatalf("empty archive: %v", err)
	}
	// Falls back to straight interpolation between the query points.
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	if len(paths[0].Support) != 0 {
		t.Fatal("empty archive should give unsupported path")
	}
}

func TestInferPathsNetworkFreeDegenerate(t *testing.T) {
	w := newWorld(t, 50, 95)
	if _, err := w.eng.InferPathsNetworkFreeCtx(context.Background(), &traj.Trajectory{}, w.p, 20); err == nil {
		t.Fatal("empty query accepted")
	}
	// K3 < 0 asks for no paths: refused like InferRoutesCtx refuses it, on
	// one pair and on several.
	qc, ok := w.ds.GenQuery(5000, 180, 15, w.cfg, w.rng)
	if !ok || qc.Query.Len() < 3 {
		t.Fatal("GenQuery failed")
	}
	p := w.p
	p.K3 = -1
	for _, q := range []*traj.Trajectory{{Points: qc.Query.Points[:2]}, qc.Query} {
		if _, err := w.eng.InferPathsNetworkFreeCtx(context.Background(), q, p, w.g.MaxSpeed()); !errors.Is(err, ErrNoFreePath) {
			t.Fatalf("%d points, K3 < 0: network-free err = %v, want ErrNoFreePath", q.Len(), err)
		}
		if _, err := w.eng.InferRoutesCtx(context.Background(), q, p); !errors.Is(err, ErrNoRoutes) {
			t.Fatalf("%d points, K3 < 0: InferRoutesCtx err = %v, want ErrNoRoutes", q.Len(), err)
		}
	}
}

func TestDeviationMetric(t *testing.T) {
	a := geo.Polyline{geo.Pt(0, 0), geo.Pt(1000, 0)}
	if d := geo.Deviation(a, a, 50); d > 1e-9 {
		t.Fatalf("self deviation = %v", d)
	}
	b := geo.Polyline{geo.Pt(0, 100), geo.Pt(1000, 100)}
	if d := geo.Deviation(a, b, 50); math.Abs(d-100) > 1e-9 {
		t.Fatalf("parallel deviation = %v, want 100", d)
	}
	if d := geo.Deviation(a, nil, 50); !math.IsInf(d, 1) {
		t.Fatalf("empty deviation = %v", d)
	}
}
