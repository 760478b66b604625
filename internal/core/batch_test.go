package core

import (
	"context"
	"testing"

	"repro/internal/traj"
)

func TestInferBatchMatchesSequential(t *testing.T) {
	w := newWorld(t, 300, 131)
	var queries []*traj.Trajectory
	var truths []int // index into queries, just to keep them paired
	for i := 0; i < 6; i++ {
		qc, ok := w.ds.GenQuery(6000, 180, 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		queries = append(queries, qc.Query)
		truths = append(truths, i)
	}
	if len(queries) < 3 {
		t.Fatal("not enough queries")
	}
	_ = truths
	seq := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := w.eng.InferRoutes(q, w.p)
		if err != nil {
			t.Fatalf("sequential inference %d: %v", i, err)
		}
		seq[i] = res
	}
	batch := w.eng.InferBatchCtx(context.Background(), queries, w.p, 4)
	if len(batch) != len(queries) {
		t.Fatalf("batch results = %d", len(batch))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("batch %d: %v", i, br.Err)
		}
		if br.Index != i {
			t.Fatalf("batch order broken: %d at %d", br.Index, i)
		}
		if len(br.Result.Routes) != len(seq[i].Routes) {
			t.Fatalf("query %d: %d routes vs %d sequential",
				i, len(br.Result.Routes), len(seq[i].Routes))
		}
		for j := range br.Result.Routes {
			if !br.Result.Routes[j].Route.Equal(seq[i].Routes[j].Route) {
				t.Fatalf("query %d route %d differs between batch and sequential", i, j)
			}
			if br.Result.Routes[j].Score != seq[i].Routes[j].Score {
				t.Fatalf("query %d route %d score differs", i, j)
			}
		}
	}
}

func TestInferBatchWorkerClamping(t *testing.T) {
	w := newWorld(t, 100, 133)
	qc, ok := w.ds.GenQuery(4000, 180, 15, w.cfg, w.rng)
	if !ok {
		t.Fatal("GenQuery failed")
	}
	res := w.eng.InferBatchCtx(context.Background(), []*traj.Trajectory{qc.Query}, w.p, 0)
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("workers=0: %+v", res)
	}
	if got := w.eng.InferBatchCtx(context.Background(), nil, w.p, 4); len(got) != 0 {
		t.Fatal("empty batch")
	}
}
