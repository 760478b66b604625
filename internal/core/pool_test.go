package core

import (
	"context"
	"fmt"
	"testing"
)

// TestPublishedResultSurvivesScratchReuse is the aliasing leak check: a
// Result published by one inference must be bit-stable while later
// inferences recycle the same scratch arenas. Any pooled buffer leaking into
// Routes/Locals/Refs would be overwritten here and change the encoding.
func TestPublishedResultSurvivesScratchReuse(t *testing.T) {
	w := newWorld(t, 60, 987)
	queries := w.queries(t, 4)
	v := w.eng.src.Current()
	first, err := w.eng.InferRoutes(queries[0], w.p)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	snap := encodeFull(v, first)
	for round := 0; round < 2; round++ {
		inferConcurrently(context.Background(), w.eng, queries, w.p, 4)
	}
	if got := encodeFull(v, first); got != snap {
		t.Fatalf("published Result mutated by later inferences (scratch aliasing):\nbefore:\n%s\nafter:\n%s", snap, got)
	}

	// The same, pair by pair and method by method, on one arena: what an NNI
	// pair publishes must not alias the projector's route buffer, nor a TGI
	// pair's routes sc.routeBuf — both are overwritten by the very next route
	// converted, kept or not.
	for _, m := range []Method{MethodNNI, MethodTGI} {
		p := w.p
		p.Method = m
		x := w.eng.newExec(context.Background(), p, v)
		x.sc = newPairScratch()
		q := queries[0]
		var kept [][]LocalRoute
		var want []string
		for round := 0; round < 2; round++ {
			for i := 0; i+1 < q.Len(); i++ {
				locals, st, _ := x.pairStage(i, q.Points[i], q.Points[i+1])
				if round == 1 {
					continue // second pass only churns the arena
				}
				if st.Method != m {
					t.Fatalf("pair %d ran %v, want %v", i, st.Method, m)
				}
				kept = append(kept, locals)
				want = append(want, fmt.Sprint(locals))
			}
		}
		routes := 0
		for i, locals := range kept {
			routes += len(locals)
			if got := fmt.Sprint(locals); got != want[i] {
				t.Fatalf("%v pair %d: published local routes mutated by later pairs on the same arena:\nbefore %s\nafter  %s", m, i, want[i], got)
			}
			for _, lr := range locals {
				if len(lr.Route) != cap(lr.Route) {
					t.Fatalf("%v pair %d: published route has capacity %d for %d edges; routeSeen copies at exact size", m, i, cap(lr.Route), len(lr.Route))
				}
			}
		}
		if routes == 0 {
			t.Fatalf("%v published no local route on the test query", m)
		}
	}
}
