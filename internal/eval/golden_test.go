package eval

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/mapmatch"
)

// matcherGoldenDigests pins the competitor matchers' answers: an FNV-64a
// digest of every route and error ST-Matching, IVMM, HMM and the
// incremental matcher return on a quick world, over 20 queries at each of
// three sampling intervals. A change to how the matchers compute (their
// distance tables, their Viterbi passes) proves it answers the same by
// leaving this table alone; a change that alters a route on purpose
// re-records it and says why.
var matcherGoldenDigests = map[int64]string{
	7:  "9d93db453b299481",
	11: "decee50edf821461",
	23: "fe0d11851e2d360b",
}

func TestMatcherGoldenDigests(t *testing.T) {
	for _, seed := range []int64{7, 11, 23} {
		cfg := QuickConfig()
		cfg.Seed = seed
		w := NewWorld(cfg)
		matchers := []mapmatch.Matcher{
			w.ST, w.IVMM, mapmatch.NewHMM(w.Graph(), mapmatch.DefaultParams()), w.Incremental,
		}
		h := fnv.New64a()
		for _, interval := range []float64{60, 180, 600} {
			qs := w.Queries(20, interval, cfg.QueryLen, seed)
			fmt.Fprintf(h, "I%v:%d;", interval, len(qs))
			for qi, qc := range qs {
				for _, m := range matchers {
					r, err := m.Match(qc.Query)
					fmt.Fprintf(h, "%d/%s:%v:%v;", qi, m.Name(), err, r)
				}
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != matcherGoldenDigests[seed] {
			t.Errorf("world %d: digest %s, want %s — a matcher's output changed", seed, got, matcherGoldenDigests[seed])
		}
	}
}
