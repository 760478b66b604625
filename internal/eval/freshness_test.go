package eval

import "testing"

// TestFreshnessProfile: a live store answers the fixed query set better
// once it holds its largest archive than at its smallest.
func TestFreshnessProfile(t *testing.T) {
	t.Parallel()
	pts := series(t, figFreshness(), "HRIS (live store)").Points
	first, last := pts[0], pts[len(pts)-1]
	if last.Y <= first.Y {
		t.Errorf("accuracy at %g trips %.4f, not above %.4f at %g trips", last.X, last.Y, first.Y, first.X)
	}
}
