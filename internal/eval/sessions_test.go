package eval

import "testing"

// TestSessionProfile: the firm lag is a property of the evidence, identical
// at every provisional window, while agreement with a full requery never
// falls as the window grows and ends above the one-pair window's.
func TestSessionProfile(t *testing.T) {
	t.Parallel()
	tab := figSessions()
	lag := series(t, tab, "firm_lag_pairs").Points
	for _, p := range lag[1:] {
		if p.Y != lag[0].Y {
			t.Errorf("firm lag %.4f at window %g, %.4f at window %g", p.Y, p.X, lag[0].Y, lag[0].X)
		}
	}
	agree := series(t, tab, "provisional_AL").Points
	for i := 1; i < len(agree); i++ {
		if agree[i].Y < agree[i-1].Y {
			t.Errorf("agreement fell from %.4f at window %g to %.4f at window %g",
				agree[i-1].Y, agree[i-1].X, agree[i].Y, agree[i].X)
		}
	}
	if last := agree[len(agree)-1]; last.Y <= agree[0].Y {
		t.Errorf("agreement %.4f at window %g, not above %.4f at window %g", last.Y, last.X, agree[0].Y, agree[0].X)
	}
}
