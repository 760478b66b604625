package core

import (
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// refsAt builds an archive of one two-point trajectory per start time, and
// the whole-trajectory reference to each.
func refsAt(startT ...float64) (hist.View, []hist.Reference) {
	var trajs []*traj.Trajectory
	var refs []hist.Reference
	for i, t0 := range startT {
		trajs = append(trajs, &traj.Trajectory{Points: []traj.GPSPoint{
			{Pt: geo.Pt(0, 0), T: t0},
			{Pt: geo.Pt(100, 0), T: t0 + 30},
		}})
		refs = append(refs, hist.Reference{SourceA: int32(i), LenA: 2, SourceB: -1})
	}
	return hist.NewArchive(roadnet.NewGrid(2, 2, 100, 10), trajs), refs
}

// refPoints materializes a reference's points: its two runs, concatenated.
func refPoints(v hist.View, r hist.Reference) []traj.GPSPoint {
	return slices.Concat(r.Runs(v))
}

// TestFilterByTimeOfDayMidnightWrap: the time-of-day distance is circular,
// so a 23:50 query matches a 00:10 reference (20 minutes apart across
// midnight), not 23h40m apart.
func TestFilterByTimeOfDayMidnightWrap(t *testing.T) {
	v, refs := refsAt(
		600,   // 00:10 — 1200 s across midnight: kept
		43200, // 12:00 — far: dropped
		84600, // 23:30 — 1200 s same side: kept
	)
	refs = append(refs, hist.Reference{}) // no points: skipped
	const queryT = 3*86400 + 85800        // day 3, 23:50 — Mod must strip whole days
	out := filterByTimeOfDay(v, refs, queryT, 1800)
	if len(out) != 2 {
		t.Fatalf("filtered to %d references, want 2", len(out))
	}
	if out[0] != refs[0] || out[1] != refs[2] {
		t.Fatalf("kept the wrong references: %+v", out)
	}
}

// TestFilterByTimeOfDayDisabled: window <= 0 means "no temporal filter" and
// must pass the input through untouched, empty-point entries included.
func TestFilterByTimeOfDayDisabled(t *testing.T) {
	v, refs := refsAt(600, 43200)
	refs = append(refs, hist.Reference{})
	for _, window := range []float64{0, -1} {
		out := filterByTimeOfDay(v, refs, 85800, window)
		if len(out) != len(refs) {
			t.Fatalf("window=%v: %d references, want %d", window, len(out), len(refs))
		}
		if &out[0] != &refs[0] {
			t.Fatalf("window=%v: input slice was copied", window)
		}
	}
}

// trimWorld returns a two-segment graph-backed fixture: segment endpoints
// at x=0..100 (edge a) and x=100..200 (edge b) along y=0.
func trimWorld(t *testing.T) (*roadnet.Graph, roadnet.EdgeID, roadnet.EdgeID) {
	t.Helper()
	g := roadnet.NewGrid(1, 3, 100, 15)
	var a, b roadnet.EdgeID
	found := 0
	for i := range g.Segments {
		s := &g.Segments[i]
		y0, y1 := s.Shape[0].Y, s.Shape[len(s.Shape)-1].Y
		if y0 != 0 || y1 != 0 {
			continue
		}
		x0, x1 := s.Shape[0].X, s.Shape[len(s.Shape)-1].X
		switch {
		case x0 == 0 && x1 == 100:
			a = s.ID
			found++
		case x0 == 100 && x1 == 200:
			b = s.ID
			found++
		}
	}
	if found != 2 {
		t.Skip("grid fixture lacks the expected horizontal segments")
	}
	return g, a, b
}

// TestTrimRouteSingleSegment: a one-segment route has nothing to trim, even
// when both query endpoints are far off its far end.
func TestTrimRouteSingleSegment(t *testing.T) {
	g, a, _ := trimWorld(t)
	r := trimRoute(g, roadnet.Route{a}, geo.Pt(500, 500), geo.Pt(-500, -500))
	if len(r) != 1 || r[0] != a {
		t.Fatalf("single-segment route changed: %v", r)
	}
}

// TestTrimRouteKeepsAtLeastOneSegment: when both ends of a two-segment
// route overhang (start nearest the last segment AND end nearest the
// first), trimming must stop at one segment instead of emptying the route.
func TestTrimRouteKeepsAtLeastOneSegment(t *testing.T) {
	g, a, b := trimWorld(t)
	// Start sits on b, end sits on b too: the head loop drops a, then the
	// tail loop must not run on the 1-segment remainder.
	r := trimRoute(g, roadnet.Route{a, b}, geo.Pt(200, 0), geo.Pt(150, 0))
	if len(r) != 1 || r[0] != b {
		t.Fatalf("trim result = %v, want just the second segment", r)
	}
	// Symmetric case: both points on a — only the tail trims.
	r = trimRoute(g, roadnet.Route{a, b}, geo.Pt(50, 0), geo.Pt(0, 0))
	if len(r) != 1 || r[0] != a {
		t.Fatalf("trim result = %v, want just the first segment", r)
	}
}

// TestTrimRouteNoOverhang: a route whose ends already match the query
// extent is returned whole.
func TestTrimRouteNoOverhang(t *testing.T) {
	g, a, b := trimWorld(t)
	r := trimRoute(g, roadnet.Route{a, b}, geo.Pt(10, 0), geo.Pt(190, 0))
	if len(r) != 2 {
		t.Fatalf("no-overhang route trimmed: %v", r)
	}
}
