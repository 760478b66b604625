package eval

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestStageBreakdown(t *testing.T) {
	cfg := QuickConfig()
	cfg.Trips = 200
	cfg.Queries = 2
	w := NewWorld(cfg)
	snap := w.StageBreakdown(w.P, 180, cfg.Queries, 99)
	if got := snap.Stages[obs.StageQuery].Count; got == 0 {
		t.Fatal("no queries recorded in breakdown")
	}
	// The per-pair stages must have run once per processed pair, equally.
	refs := snap.Stages[obs.StageReferenceSearch].Count
	cands := snap.Stages[obs.StageCandidateSearch].Count
	if refs == 0 || refs != cands {
		t.Fatalf("stage counts inconsistent: reference_search=%d candidate_search=%d", refs, cands)
	}
	if snap.Counters["cache.trajmatch.tables"] == 0 {
		t.Fatal("cache gauges not folded into breakdown")
	}
	var buf bytes.Buffer
	w.WriteStageBreakdowns(&buf, []float64{3}, 99)
	out := buf.String()
	for _, want := range []string{"per-stage cost", obs.StageQuery, "p95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown text missing %q:\n%s", want, out)
		}
	}
}
