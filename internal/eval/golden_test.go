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

// figureGoldenDigests pins the numbers of every deterministic table
// cmd/experiments prints at seed 7: an FNV-64a digest of each series' name
// and exact points. The shape tests read a few columns; this reads them all,
// so a refactor of the runner proves it computes the same figures by leaving
// this list alone. The timing tables (9b–14b, deadline) are not pinned.
var figureGoldenDigests = []struct {
	table  func() *Table
	figure string
	digest string
}{
	{fig8a, "8a", "f3bfa01d13811307"},
	{fig8b, "8b", "94c3bfe87ec94a8e"},
	{fig9a, "9a", "c464c4f1038563ef"},
	{fig10a, "10a", "5b931b77366a4b27"},
	{fig11a, "11a", "e3a35345114ca516"},
	{fig12a, "12a", "e68c02ca2cb01808"},
	{fig13a, "13a", "b15fe7a017aeb601"},
	{fig14a, "14a", "8804d0f92e286ac9"},
	{figA1, "A1", "e1d9e648f6a790ba"},
	{figE1, "E1", "49349903117bc67a"},
	{figE2, "E2", "64bab804da086a61"},
	{figFreshness, "freshness", "25a6de9220052acc"},
	{figSessions, "sessions", "f5bbf6d993be1e2b"},
}

func TestFigureGoldenDigests(t *testing.T) {
	t.Parallel()
	for _, g := range figureGoldenDigests {
		t.Run(g.figure, func(t *testing.T) {
			t.Parallel()
			tab := g.table()
			if tab.Figure != g.figure {
				t.Fatalf("table is figure %s", tab.Figure)
			}
			h := fnv.New64a()
			for _, s := range tab.Series {
				fmt.Fprintf(h, "%s:", s.Name)
				for _, p := range s.Points {
					fmt.Fprintf(h, "%v,%v;", p.X, p.Y)
				}
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != g.digest {
				t.Errorf("figure %s: digest %s, want %s — a figure's numbers changed", g.figure, got, g.digest)
			}
		})
	}
}
