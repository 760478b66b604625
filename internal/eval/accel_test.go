package eval

import (
	"reflect"
	"testing"

	"repro/internal/mapmatch"
	"repro/internal/roadnet"
)

// TestEngineIdenticalAcrossOracles is the end-to-end exactness contract of
// the acceleration layer: two worlds built from the same config — one on
// the contraction-hierarchy oracle, one on plain Dijkstra — must produce
// byte-identical inference results (scores included) and identical
// competitor-matcher routes on the same queries. CH answers are re-summed
// over the unpacked original-arc path precisely so this holds.
func TestEngineIdenticalAcrossOracles(t *testing.T) {
	cfg := QuickConfig()
	cfg.Queries = 4
	chW := NewWorld(cfg)
	dcfg := cfg
	dcfg.Accel = roadnet.AccelDijkstra
	dW := NewWorld(dcfg)
	if chW.Graph().Accel() != roadnet.AccelCH || dW.Graph().Accel() != roadnet.AccelDijkstra {
		t.Fatal("accel modes not applied")
	}

	qsCH := chW.Queries(4, 180, cfg.QueryLen, 321)
	qsD := dW.Queries(4, 180, cfg.QueryLen, 321)
	if len(qsCH) == 0 || len(qsCH) != len(qsD) {
		t.Fatalf("query sets: ch=%d dijkstra=%d", len(qsCH), len(qsD))
	}
	for i := range qsCH {
		// The simulated world itself must not depend on the oracle.
		if !reflect.DeepEqual(qsCH[i].Query.Points, qsD[i].Query.Points) ||
			!reflect.DeepEqual(qsCH[i].Truth, qsD[i].Truth) {
			t.Fatalf("query %d diverged between accel modes", i)
		}
		r1, err1 := chW.Eng.InferRoutes(qsCH[i].Query, chW.P)
		r2, err2 := dW.Eng.InferRoutes(qsD[i].Query, dW.P)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d: errors differ: ch=%v dijkstra=%v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(r1.Routes, r2.Routes) {
			t.Errorf("query %d: InferRoutes routes differ between ch and dijkstra", i)
		}
		for _, pair := range [][2]mapmatch.Matcher{
			{chW.ST, dW.ST}, {chW.IVMM, dW.IVMM}, {chW.Incremental, dW.Incremental},
		} {
			a, ea := pair[0].Match(qsCH[i].Query)
			b, eb := pair[1].Match(qsD[i].Query)
			if (ea == nil) != (eb == nil) || !reflect.DeepEqual(a, b) {
				t.Errorf("query %d: %s route differs between ch and dijkstra", i, pair[0].Name())
			}
		}
	}

	// The CH world must actually have built a hierarchy by now.
	if st, ok := chW.Graph().OracleStats(); !ok || st.Vertices == 0 {
		t.Errorf("CH oracle stats missing after queries: %+v ok=%v", st, ok)
	}
	if _, ok := dW.Graph().OracleStats(); ok {
		t.Error("dijkstra world reports CH stats")
	}
}
