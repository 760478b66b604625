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
// the per-trajectory match table landed, and re-recorded once when candidate
// edges got a total order: equidistant candidates — the two directions of
// one road — now break ties by EdgeID, not by the order the old R-tree's
// leaves happened to visit them. A performance change proves byte-identity
// by leaving this table alone; a change that alters an answer on purpose
// re-records it and says why.
var goldenDigests = map[int64]string{
	191: "299451ae75eef50460d80d06a9f355325fe79cb09dfcd4c16b3b62aef74e0136",
	7:   "7204d3cb740ff1e27538b8836f57eb611fc160ac9de86ffe9ec3172b49c3d468",
	33:  "bf75fd8d59274f06c1a66338eda69bf2fac7b7415870c517a9da143d551cd4b4",
}

// goldenNetworkFreeDigests pins the network-free extension's output (paths,
// exact score bits, sorted support) on the same worlds and query mix;
// goldenPairLocalDigests pins PairLocalRoutes under each method on every
// pair of the mix's first 30 queries, PairStats.Spliced excluded (it was
// once not counted there). Both were recorded before offline inference
// became the Session fold. goldenPairLocalDigests was re-recorded with
// goldenDigests, for the same candidate tie rule (the network-free path
// never searches candidate edges). goldenNetworkFreeDigests was re-recorded
// once, on its own, when the network-free DP moved onto the network DP's
// K-GRI over support-set local routes: the scores are the same products,
// but equal-score partials now break ties by their parts, as the network
// DP does, not by insertion order.
var goldenNetworkFreeDigests = map[int64]string{
	191: "c2845fb52c4815392ccc684cb79d2ce025154876596921996b04ac06dfa752ab",
	7:   "6f240c6313651131a049621e38130f7340664a1c89673c0edfb715c80b8e489e",
	33:  "f4a6c375a1f7af8186c27413619bf4a4ac54c7e669acc00b08650f382599d935",
}

var goldenPairLocalDigests = map[int64]string{
	191: "534cdc8a4ecb7209610aa7ca22138deeb24900775d4689488c2406e560b80085",
	7:   "e6650e70926c333fd81875169fd08fe866c056f7b4e47b5885e6e9217d66a9f0",
	33:  "c6b00b40a3d1aa10807ae1c35397c03b399ab57e8d58a1aa950583de0caf704d",
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
