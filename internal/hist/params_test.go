package hist

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

// TestVMaxOverride: with no override the network's V_max applies; a small
// override tightens Definition 6's condition 3 and rejects references the
// default accepts.
func TestVMaxOverride(t *testing.T) {
	g, qi, qj := refWorld() // network V_max = 15 m/s, budget = 900 m
	// A mild detour whose lens sum peaks at ~670 m: feasible at V_max=15
	// (budget 900) but not at V_max=10 (budget 600).
	mild := lineTraj("mild", geo.Pt(50, 10), geo.Pt(200, 300), geo.Pt(350, 10))
	a := NewArchive(g, []*traj.Trajectory{mild})
	if refs := References(a, qi, qj, SearchParams{Phi: 60}); len(refs) != 1 {
		t.Fatalf("default V_max: refs = %d", len(refs))
	}
	if refs := References(a, qi, qj, SearchParams{Phi: 60, VMax: 10}); len(refs) != 0 {
		t.Fatalf("V_max=10: refs = %d, want 0", len(refs))
	}
	// Generous override keeps it.
	if refs := References(a, qi, qj, SearchParams{Phi: 60, VMax: 30}); len(refs) != 1 {
		t.Fatalf("V_max=30: refs = %d", len(refs))
	}
}

// TestSpliceGating: spliced references only engage when fewer than
// SpliceMinSimple simple references exist.
func TestSpliceGating(t *testing.T) {
	g, qi, qj := refWorld()
	// Two simple references plus a splice-able pair.
	trajs := []*traj.Trajectory{
		lineTraj("s1", geo.Pt(40, 10), geo.Pt(200, 10), geo.Pt(350, 10)),
		lineTraj("s2", geo.Pt(40, 20), geo.Pt(200, 20), geo.Pt(350, 20)),
		lineTraj("ta", geo.Pt(40, 30), geo.Pt(150, 30)),
		lineTraj("tb", geo.Pt(170, 35), geo.Pt(350, 30)),
	}
	a := NewArchive(g, trajs)
	count := func(p SearchParams) (simple, spliced int) {
		for _, r := range References(a, qi, qj, p) {
			if r.Spliced {
				spliced++
			} else {
				simple++
			}
		}
		return
	}
	// Gate at 1: the 2 simple refs suffice, no splicing.
	if s, sp := count(SearchParams{Phi: 60, SpliceEps: 50, SpliceMinSimple: 1}); s != 2 || sp != 0 {
		t.Fatalf("gated: %d simple, %d spliced", s, sp)
	}
	// Gate at 8: too few simple refs, splicing engages.
	if s, sp := count(SearchParams{Phi: 60, SpliceEps: 50, SpliceMinSimple: 8}); s != 2 || sp != 1 {
		t.Fatalf("engaged: %d simple, %d spliced", s, sp)
	}
	// SpliceMinSimple = 0 splices unconditionally.
	if s, sp := count(SearchParams{Phi: 60, SpliceEps: 50}); s != 2 || sp != 1 {
		t.Fatalf("unconditional: %d simple, %d spliced", s, sp)
	}
}

// TestReferencesDeterministic: repeated searches return the references in
// identical order (tie-breaking downstream depends on it).
func TestReferencesDeterministic(t *testing.T) {
	g, qi, qj := refWorld()
	var trajs []*traj.Trajectory
	for k := 0; k < 12; k++ {
		off := float64(k%4) * 10
		trajs = append(trajs, lineTraj("t",
			geo.Pt(40, 5+off), geo.Pt(200, 5+off), geo.Pt(350, 5+off)))
	}
	a := NewArchive(g, trajs)
	p := SearchParams{Phi: 60, SpliceEps: 50, SpliceMinSimple: 100}
	first := References(a, qi, qj, p)
	for round := 0; round < 5; round++ {
		again := References(a, qi, qj, p)
		if len(again) != len(first) {
			t.Fatalf("round %d: %d refs vs %d", round, len(again), len(first))
		}
		for i := range again {
			if again[i].SourceA != first[i].SourceA || again[i].SourceB != first[i].SourceB {
				t.Fatalf("round %d: reference order differs at %d", round, i)
			}
		}
	}
}
