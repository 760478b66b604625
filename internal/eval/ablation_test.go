package eval

import "testing"

// TestAblationsSmoke: Equation 1's entropy factor helps at every sampling
// rate, and spliced references win at 15 minutes, where simple references
// are scarce.
func TestAblationsSmoke(t *testing.T) {
	t.Parallel()
	w := fullWorld()
	tab := w.Ablations()
	full, noEntropy := series(t, tab, "full"), series(t, tab, "no-entropy")
	for _, p := range full.Points {
		if e := at(t, noEntropy, p.X); p.Y <= e {
			t.Errorf("SR=%g min: full %.4f not above no-entropy %.4f", p.X, p.Y, e)
		}
	}
	if f, s := at(t, full, 15), at(t, series(t, tab, "no-splicing"), 15); f <= s {
		t.Errorf("SR=15 min: full %.4f not above no-splicing %.4f", f, s)
	}
	if w.P.AblateEntropy || w.P.AblateTransition || w.P.AblateTrim {
		t.Fatal("Ablations leaked parameter changes")
	}
}

// TestNetworkFreeExtensionSmoke: with no road network, chaining historical
// point paths deviates less from the true path than straight-line
// interpolation of the query points, at every sampling rate.
func TestNetworkFreeExtensionSmoke(t *testing.T) {
	t.Parallel()
	tab := fullWorld().NetworkFreeExtension()
	straight := series(t, tab, "straight-line")
	for _, p := range series(t, tab, "network-free HRIS").Points {
		if s := at(t, straight, p.X); p.Y >= s {
			t.Errorf("SR=%g min: network-free deviation %.0f m not below straight-line %.0f m", p.X, p.Y, s)
		}
	}
}

// TestTemporalExtensionSmoke: on PM queries over time-varying patterns,
// filtering references by time of day wins at 3 and 15 minutes and loses at
// 9, where it leaves too little evidence.
func TestTemporalExtensionSmoke(t *testing.T) {
	t.Parallel()
	tab := TemporalExtension(FullConfig())
	untimed, filtered := series(t, tab, "untimed"), series(t, tab, "time-filtered")
	for sr, wins := range map[float64]bool{3: true, 9: false, 15: true} {
		u, f := at(t, untimed, sr), at(t, filtered, sr)
		if (f > u) != wins {
			t.Errorf("SR=%g min: time-filtered %.4f vs untimed %.4f, want filtering to win=%v", sr, f, u, wins)
		}
	}
}
