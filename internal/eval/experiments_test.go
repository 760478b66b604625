package eval

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// The tests in this package named after a figure check the shape
// EXPERIMENTS.md claims for it, on the world cmd/experiments prints and
// through the same function. They read accuracy, deviation and count
// columns only, never a wall clock, so a shape either holds on this world
// or EXPERIMENTS.md must say it does not. They run in parallel on one
// shared world: the engine is safe for concurrent use, and its answers do
// not depend on what else it is serving.

var (
	fullOnce sync.Once
	full     *World
)

// fullWorld is the world cmd/experiments prints its figures on (FullConfig,
// seed 7), built once and shared by every shape check.
func fullWorld() *World {
	fullOnce.Do(func() { full = NewWorld(FullConfig()) })
	return full
}

// series returns the named series of a figure.
func series(t *testing.T, tab *Table, name string) Series {
	t.Helper()
	for _, s := range tab.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", tab.Figure, name)
	return Series{}
}

// at returns a series' value at x.
func at(t *testing.T, s Series, x float64) float64 {
	t.Helper()
	y, ok := s.lookup(x)
	if !ok {
		t.Fatalf("series %q has no point at x=%g", s.Name, x)
	}
	return y
}

// peak returns a series' highest point (the first, on ties).
func peak(s Series) XY {
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.Y > best.Y {
			best = p
		}
	}
	return best
}

func TestMsPerQuery(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		n    int
		want float64
	}{
		{999 * time.Microsecond, 10, 0.0999}, // whole-ms truncation gave 0
		{2500 * time.Microsecond, 2, 1.25},
		{3 * time.Millisecond, 0, 3},
	} {
		if got := msPerQuery(tc.d, tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("msPerQuery(%v, %d) = %v, want %v", tc.d, tc.n, got, tc.want)
		}
	}
}

// TestFigure8aSmoke: from 6-minute sampling on, HRIS is at least as
// accurate as every map-matching competitor.
func TestFigure8aSmoke(t *testing.T) {
	t.Parallel()
	tab := fullWorld().Figure8a()
	hris := series(t, tab, "HRIS")
	checked := 0
	for _, m := range []string{"IVMM", "ST-matching", "incremental"} {
		comp := series(t, tab, m)
		for _, p := range hris.Points {
			if p.X < 6 {
				continue
			}
			checked++
			if c := at(t, comp, p.X); p.Y < c {
				t.Errorf("SR=%g min: HRIS %.4f below %s %.4f", p.X, p.Y, m, c)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no sampling rate of 6 min or more in the sweep")
	}
}

// TestFigure8bSmoke: HRIS is ahead of every competitor at the shortest and
// at the longest query length.
func TestFigure8bSmoke(t *testing.T) {
	t.Parallel()
	tab := fullWorld().Figure8b()
	hris := series(t, tab, "HRIS")
	ends := []XY{hris.Points[0], hris.Points[len(hris.Points)-1]}
	for _, m := range []string{"IVMM", "ST-matching", "incremental"} {
		comp := series(t, tab, m)
		for _, p := range ends {
			if c := at(t, comp, p.X); p.Y <= c {
				t.Errorf("L=%g km: HRIS %.4f not ahead of %s %.4f", p.X, p.Y, m, c)
			}
		}
	}
}

// TestFigure9Smoke: at every sampling rate, the best radius φ of 200 m or
// more beats φ = 50 m.
func TestFigure9Smoke(t *testing.T) {
	t.Parallel()
	w := fullWorld()
	acc, _ := w.Figure9()
	if len(acc.Series) != len(sweepRates) {
		t.Fatalf("figure 9a: %d series, want one per sweep rate", len(acc.Series))
	}
	for _, s := range acc.Series {
		small, wide := at(t, s, 50), 0.0
		for _, p := range s.Points {
			if p.X >= 200 {
				wide = math.Max(wide, p.Y)
			}
		}
		if wide <= small {
			t.Errorf("%s: best φ ≥ 200 m scores %.4f, φ = 50 m %.4f", s.Name, wide, small)
		}
	}
	if w.P.Phi != core.DefaultParams().Phi {
		t.Fatal("Figure9 leaked parameter changes")
	}
}

// TestFigure10Smoke: NNI is at least as accurate as TGI at some reference
// density below 50 points/km², and TGI is strictly more accurate at every
// density from 50 up.
func TestFigure10Smoke(t *testing.T) {
	t.Parallel()
	acc, _ := Figure10(FullConfig())
	tgi, nni := series(t, acc, "tgi"), series(t, acc, "nni")
	nniWins, dense := false, 0
	for _, p := range tgi.Points {
		n := at(t, nni, p.X)
		if p.X < 50 {
			nniWins = nniWins || n >= p.Y
			continue
		}
		dense++
		if p.Y <= n {
			t.Errorf("ρ=%.4g: TGI %.4f not above NNI %.4f", p.X, p.Y, n)
		}
	}
	if !nniWins {
		t.Error("NNI is below TGI at every density under 50/km²")
	}
	if dense == 0 {
		t.Error("no density of 50/km² or more in the sweep")
	}
}

// TestFigure11Smoke: at every sampling rate, accuracy peaks at an interior
// λ — it rises, then declines.
func TestFigure11Smoke(t *testing.T) {
	t.Parallel()
	acc, _ := fullWorld().Figure11()
	for _, s := range acc.Series {
		first, last := s.Points[0].X, s.Points[len(s.Points)-1].X
		if p := peak(s); p.X == first || p.X == last {
			t.Errorf("%s: accuracy peaks at the sweep's end, λ=%g", s.Name, p.X)
		}
	}
}

// nearBest is how far below a sweep's best accuracy a point may sit and
// still count as saturated.
const nearBest = 0.03

// TestFigure12Smoke: at every sampling rate, k1 = 1 is the worst setting,
// and some k1 in [4, 8] is within nearBest of the best.
func TestFigure12Smoke(t *testing.T) {
	t.Parallel()
	acc, _ := fullWorld().Figure12()
	for _, s := range acc.Series {
		one, mid := at(t, s, 1), 0.0
		for _, p := range s.Points {
			if p.X != 1 && p.Y <= one {
				t.Errorf("%s: k1=%g scores %.4f, not above k1=1's %.4f", s.Name, p.X, p.Y, one)
			}
			if p.X >= 4 && p.X <= 8 {
				mid = math.Max(mid, p.Y)
			}
		}
		if best := peak(s); mid < best.Y-nearBest {
			t.Errorf("%s: best k1 in [4,8] scores %.4f, best overall %.4f at k1=%g", s.Name, mid, best.Y, best.X)
		}
	}
}

// TestFigure13Smoke: sparser sampling needs a larger NNI fan-out — SR=15's
// best k2 is past the sweep's smallest and at least SR=3's.
func TestFigure13Smoke(t *testing.T) {
	t.Parallel()
	acc, _ := fullWorld().Figure13()
	dense, sparse := series(t, acc, "SR=3min"), series(t, acc, "SR=15min")
	d, s := peak(dense), peak(sparse)
	if s.X == sparse.Points[0].X || s.X < d.X {
		t.Errorf("SR=15 peaks at k2=%g, SR=3 at k2=%g", s.X, d.X)
	}
}

// TestFigure14aSmoke: the best of the top-k3 routes never gets worse as k3
// grows, and the largest k3 finds a better one than k3 = 1.
func TestFigure14aSmoke(t *testing.T) {
	t.Parallel()
	best := series(t, fullWorld().Figure14a(), "max")
	pts := best.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Errorf("max accuracy fell from %.4f at k3=%g to %.4f at k3=%g", pts[i-1].Y, pts[i-1].X, pts[i].Y, pts[i].X)
		}
	}
	if pts[len(pts)-1].Y <= pts[0].Y {
		t.Errorf("max accuracy flat in k3: %.4f", pts[0].Y)
	}
}

// TestFigure14bSmoke checks Figure 14b by counting, not timing: on the
// figure's query, brute force enumerates ∏|Lᵢ| global routes while K-GRI
// scores K·Σ|Lᵢ₋₁||Lᵢ| transitions, and the ratio reaches two orders of
// magnitude. On the longest prefix the figure times, both return the same
// top K.
func TestFigure14bSmoke(t *testing.T) {
	t.Parallel()
	w := fullWorld()
	locals := w.kgriLocals()
	if len(locals) < 2 {
		t.Fatalf("figure 14b's query has %d pairs", len(locals))
	}
	k := w.P.K3
	brute, steps, most := float64(len(locals[0])), 0.0, 0.0
	for n := 2; n <= len(locals); n++ {
		brute *= float64(len(locals[n-1]))
		steps += float64(k * len(locals[n-2]) * len(locals[n-1]))
		most = math.Max(most, brute/steps)
	}
	if most < 100 {
		t.Errorf("brute force enumerates at most %.1f× K-GRI's transitions over %d pairs", most, len(locals))
	}

	sub := locals[:min(7, len(locals))]
	got, want := core.KGRI(w.Graph(), sub, k), core.BruteForceGlobalRoutes(w.Graph(), sub, k)
	if len(got) != len(want) {
		t.Fatalf("K-GRI returned %d routes, brute force %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-12*math.Max(1, want[i].Score) || !slices.Equal(got[i].Parts, want[i].Parts) {
			t.Errorf("route %d: K-GRI %v (%g), brute force %v (%g)", i, got[i].Parts, got[i].Score, want[i].Parts, want[i].Score)
		}
	}
}
