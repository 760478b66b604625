package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/traj"
)

// goldenDigests pins InferRoutes' complete output — routes, exact score
// bits, pair stats and every local route's support set (encodeFull) — for a
// fixed-seed query mix, as sha256 digests recorded once on the commit before
// the per-trajectory match table landed (PR 14's parent). A perf PR proves
// byte-identity by leaving this table alone; a PR that changes an answer on
// purpose re-records it and says why.
var goldenDigests = map[int64]string{
	191: "bee299eb67aaa1f6e88cc41799c353761c3b9a43a801e48299f3f04a57d1815f",
	7:   "1df91a528a5ae175bd99a5ba5734d23f8720ebae37bbd5a4bc674f92d1069ec1",
	33:  "18a73d2f24fc05eb6a71162497cb068bab70eb63bc304efd99909f90b4077d8f",
}

// goldenNetworkFreeDigests pins the network-free extension's output (paths,
// exact score bits, sorted support) on the same worlds and query mix;
// goldenPairLocalDigests pins PairLocalRoutes under each method on every
// pair of the mix's first 30 queries, PairStats.Spliced excluded (it was
// never counted there before PR 15). Both were recorded on PR 15's parent.
var goldenNetworkFreeDigests = map[int64]string{
	191: "4f72ee1e5358ccf700cb81f1b9a85f222aff254be69f148cc6d5def541101f8f",
	7:   "f86cf7bd08aa82f439315e6ec51b000b25d5dc62b213d290a9461c7daae7efe2",
	33:  "0d15743aa5df6fd1c9b412d492c756884b51ec0e86b6f739f60a4d7ef15d5e7a",
}

var goldenPairLocalDigests = map[int64]string{
	191: "d28417a09ad5e4a5d7bc50473ceda15b8377f9b0ff13ae4d9f590cb7aaabe70d",
	7:   "139fc02cdaf99bc83009793a5dd0bbed437c35398a4a7a07fc74e0bc435b6e5f",
	33:  "572796bf8f9e17cac5c9a9c2bc8cece43d1faf51b525e36670401d3e4153a9dd",
}

// goldenDigest runs the fixed mix on one world — queries whose sampling
// interval cycles 120/180/360/600 s, drawn from the world's own rng — and
// digests what encode writes for each.
func goldenDigest(t testing.TB, seed int64, queries int, encode func(w *world, h io.Writer, q *traj.Trajectory)) string {
	w := newWorld(t, 600, seed)
	h := sha256.New()
	intervals := []float64{120, 180, 360, 600}
	for n, tries := 0, 0; n < queries; tries++ {
		if tries > 5000 {
			t.Fatalf("world %d: only %d queries generated", seed, n)
		}
		qc, ok := w.ds.GenQuery(6000, intervals[n%len(intervals)], 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		fmt.Fprintf(h, "Q%d", n)
		encode(w, h, qc.Query)
		n++
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkGolden(t *testing.T, want map[int64]string, queries int, encode func(w *world, h io.Writer, q *traj.Trajectory)) {
	t.Helper()
	for _, seed := range []int64{191, 7, 33} {
		if got := goldenDigest(t, seed, queries, encode); got != want[seed] {
			t.Errorf("world %d: digest %s, want %s — inference output changed", seed, got, want[seed])
		}
	}
}

func TestGoldenDigest(t *testing.T) {
	checkGolden(t, goldenDigests, 120, func(w *world, h io.Writer, q *traj.Trajectory) {
		res, err := w.eng.InferRoutes(q, w.p)
		if err != nil {
			fmt.Fprintf(h, " E %v\n", err)
		} else {
			fmt.Fprintf(h, "\n%s", encodeFull(w.eng.src.Current(), res))
		}
	})
}

func TestGoldenDigestNetworkFree(t *testing.T) {
	checkGolden(t, goldenNetworkFreeDigests, 120, func(w *world, h io.Writer, q *traj.Trajectory) {
		paths, err := w.eng.InferPathsNetworkFreeCtx(context.Background(), q, w.p, w.g.MaxSpeed())
		if err != nil {
			fmt.Fprintf(h, " E %v\n", err)
			return
		}
		for _, fr := range paths {
			fmt.Fprintf(h, "\nF %x", fr.Score)
			for _, pt := range fr.Path {
				fmt.Fprintf(h, " %x,%x", math.Float64bits(pt.X), math.Float64bits(pt.Y))
			}
			fmt.Fprintf(h, " %v", fr.Support)
		}
	})
}

func TestGoldenDigestPairLocalRoutes(t *testing.T) {
	checkGolden(t, goldenPairLocalDigests, 30, func(w *world, h io.Writer, q *traj.Trajectory) {
		for i := 0; i+1 < q.Len(); i++ {
			for _, m := range []Method{MethodHybrid, MethodTGI, MethodNNI} {
				locals, st := w.eng.PairLocalRoutes(q.Points[i], q.Points[i+1], m, w.p)
				st.Spliced = 0
				fmt.Fprintf(h, "\nP%d %v %+v", i, m, st)
				for _, lr := range locals {
					fmt.Fprintf(h, "\nL %v %x %v", lr.Route, lr.Popularity, lr.Refs)
				}
			}
		}
	})
}
