package hist

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/traj"
)

// checkCanonRanks fails unless v's ranks order its trajectories exactly as
// sorting by (canonKey, index) does, with equal ranks for equal keys only.
func checkCanonRanks(t *testing.T, what string, v *Snapshot) {
	t.Helper()
	n := v.NumTrajs()
	want, got := make([]int, n), make([]int, n)
	for i := range want {
		want[i], got[i] = i, i
	}
	slices.SortFunc(want, func(a, b int) int {
		return cmp.Or(canonKeyOf(v.Traj(a)).compare(canonKeyOf(v.Traj(b))), cmp.Compare(a, b))
	})
	slices.SortFunc(got, func(a, b int) int {
		return cmp.Or(cmp.Compare(v.CanonRank(a), v.CanonRank(b)), cmp.Compare(a, b))
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: (rank, index) order %v, (key, index) order %v", what, got, want)
	}
	if !slices.Equal(v.order, int32s(want)) {
		t.Fatalf("%s: published order %v, want %v", what, v.order, want)
	}
	for k := 1; k < n; k++ {
		a, b := want[k-1], want[k]
		sameKey := canonKeyOf(v.Traj(a)).compare(canonKeyOf(v.Traj(b))) == 0
		if sameRank := v.CanonRank(a) == v.CanonRank(b); sameKey != sameRank {
			t.Fatalf("%s: trips %d and %d: equal keys %v, equal ranks %v", what, a, b, sameKey, sameRank)
		}
	}
}

func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// canonTrips is oracleWorld's archive (which already holds byte-identical
// twins) plus trips that share a canonical identity — ID, first sample and
// length — with another trip but differ further on.
func canonTrips(seed int64) []*traj.Trajectory {
	_, trips, _ := oracleWorld(seed)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 12; k++ {
		tw := trips[rng.Intn(len(trips))].Clone()
		if tw.Len() > 1 {
			tw.Points[tw.Len()-1].Pt = tw.Points[tw.Len()-1].Pt.Add(geo.Pt(float64(k+1), 0))
		}
		trips = append(trips, tw)
	}
	return trips
}

// splitBatches cuts trips, shuffled, into a seed and random-sized batches.
func splitBatches(rng *rand.Rand, trips []*traj.Trajectory) (seed []*traj.Trajectory, batches [][]*traj.Trajectory) {
	trips = slices.Clone(trips)
	rng.Shuffle(len(trips), func(i, j int) { trips[i], trips[j] = trips[j], trips[i] })
	cut := rng.Intn(len(trips) / 2)
	seed, trips = trips[:cut], trips[cut:]
	for len(trips) > 0 {
		n := 1 + rng.Intn(min(len(trips), 40))
		batches, trips = append(batches, trips[:n]), trips[n:]
	}
	return seed, batches
}

// TestCanonRankOrder: the ranks a snapshot publishes — built once by
// NewArchive and NewShardedStore, merged forward by every ingest — sort
// trajectories exactly as canonKey does, whatever the batch split and
// order; compaction keeps them, and a durable store recovers them.
func TestCanonRankOrder(t *testing.T) {
	trips := canonTrips(3)
	g, _, _ := oracleWorld(3)
	checkCanonRanks(t, "NewArchive", NewArchive(g, trips))
	checkCanonRanks(t, "NewArchive(nil)", NewArchive(g, nil))

	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 4} {
		for trial := 0; trial < 4; trial++ {
			what := fmt.Sprintf("shards=%d trial %d", n, trial)
			cfg := ShardedConfig{Shards: n, Halo: 200}
			seed, batches := splitBatches(rng, trips)
			st := NewShardedStore(g, seed, cfg)
			checkCanonRanks(t, what+" seed", st.Snapshot())
			for b, batch := range batches {
				st.IngestTrips(batch...)
				checkCanonRanks(t, fmt.Sprintf("%s batch %d", what, b), st.Snapshot())
			}
			before := st.Snapshot().rank
			st.Compact()
			if after := st.Snapshot(); after.Segments() != n || !slices.Equal(after.rank, before) {
				t.Fatalf("%s: compaction to %d segments changed the ranks", what, after.Segments())
			}

			if trial > 0 {
				continue
			}
			dir := t.TempDir()
			durable, _, err := OpenShardedStore(dir, g, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range batches {
				durable.IngestTrips(batch...)
			}
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}
			re, _, err := OpenShardedStore(dir, g, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := re.Snapshot(); !slices.Equal(got.rank, before) || !slices.Equal(got.order, st.Snapshot().order) {
				t.Fatalf("%s: reopened store's ranks differ from the uninterrupted store's", what)
			}
			re.Close()
		}
	}
}

// TestRadiusTestMatchesHypot: the squared-distance shortcut gives exactly
// Dist's verdict — at φ·(1 ± a few ulps) along the axes and diagonals, on
// the edges of its own band, for NaN and infinite coordinates, at radii
// from 0 through subnormal, tiny, huge and overflowing to +Inf and NaN, and
// on random inputs.
func TestRadiusTestMatchesHypot(t *testing.T) {
	check := func(pt, q geo.Point, phi float64) bool {
		d2, got := newRadius(phi).contains(pt, q)
		if want := pt.Dist(q) <= phi; got != want || math.Float64bits(d2) != math.Float64bits(pt.Dist2(q)) {
			t.Errorf("contains(%v, %v, φ=%v) = %v, Dist %v <= φ is %v", pt, q, phi, got, pt.Dist(q), want)
			return false
		}
		return true
	}
	phis := []float64{0, 5e-324, 1e-100, 1, 500, 1e150, 1e155, math.MaxFloat64, math.Inf(1), math.NaN()}
	origins := []geo.Point{{}, geo.Pt(1234.5, -987.25), geo.Pt(-3e5, 7e5)}
	r2 := 1 / math.Sqrt2
	dirs := []geo.Point{{X: 1}, {Y: 1}, {X: -1}, {Y: -1}, {X: r2, Y: r2}, {X: -r2, Y: r2}, {X: r2, Y: -r2}, {X: -r2, Y: -r2}}
	for _, phi := range phis {
		for _, scale := range []float64{1, math.Sqrt(1 - 1e-9), math.Sqrt(1 + 1e-9)} {
			for k := -6; k <= 6; k++ {
				d := phi * scale
				for i := 0; i < k; i++ {
					d = math.Nextafter(d, math.Inf(1))
				}
				for i := 0; i > k; i-- {
					d = math.Nextafter(d, 0)
				}
				for _, q := range origins {
					for _, u := range dirs {
						check(q.Add(u.Scale(d)), q, phi)
					}
				}
			}
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, q := range origins {
				check(geo.Pt(bad, q.Y), q, phi)
				check(geo.Pt(q.X, bad), q, phi)
				check(geo.Pt(bad, bad), q, phi)
				check(q, geo.Pt(bad, 0), phi)
			}
		}
	}

	// Random inputs at random scales, and random points near the circle —
	// a relative 2^-22 to 2^-61 off it, inside the band down to the last
	// few ulps, where Dist2 and Dist round differently.
	at := func(x float64, e int16) float64 {
		fr, _ := math.Frexp(x)
		return math.Ldexp(fr, int(e)%1100)
	}
	anywhere := func(a, b, c, d, r float64, ea, eb, ec, ed, er int16) bool {
		return check(geo.Pt(at(a, ea), at(b, eb)), geo.Pt(at(c, ec), at(d, ed)), math.Abs(at(r, er)))
	}
	onCircle := func(c, d, r float64, er int16, eq, ef int8, theta, eps float64) bool {
		phi := math.Abs(at(r, er))
		q := geo.Pt(at(c, 0), at(d, 0)).Scale(math.Ldexp(phi, int(eq%16)))
		f := 1 + math.Ldexp(math.Sin(eps), -22-int(uint8(ef)%40))
		return check(q.Add(geo.Pt(math.Cos(theta), math.Sin(theta)).Scale(phi*f)), q, phi)
	}
	for _, f := range []any{anywhere, onCircle} {
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Error(err)
		}
	}
}
