package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
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

// goldenDigest runs the fixed mix on one world: 120 queries whose sampling
// interval cycles 120/180/360/600 s, drawn from the world's own rng.
func goldenDigest(t testing.TB, seed int64) string {
	w := newWorld(t, 600, seed)
	v := w.eng.Archive()
	h := sha256.New()
	intervals := []float64{120, 180, 360, 600}
	for n, tries := 0, 0; n < 120; tries++ {
		if tries > 5000 {
			t.Fatalf("world %d: only %d queries generated", seed, n)
		}
		qc, ok := w.ds.GenQuery(6000, intervals[n%len(intervals)], 15, w.cfg, w.rng)
		if !ok {
			continue
		}
		res, err := w.eng.InferRoutes(qc.Query, w.p)
		if err != nil {
			fmt.Fprintf(h, "Q%d E %v\n", n, err)
		} else {
			fmt.Fprintf(h, "Q%d\n%s", n, encodeFull(v, res))
		}
		n++
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenDigest(t *testing.T) {
	for _, seed := range []int64{191, 7, 33} {
		if got := goldenDigest(t, seed); got != goldenDigests[seed] {
			t.Errorf("world %d: digest %s, want %s — inference output changed", seed, got, goldenDigests[seed])
		}
	}
}
