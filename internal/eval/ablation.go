package eval

import (
	"context"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
)

// Ablations quantifies the design choices DESIGN.md calls out by switching
// each off in isolation and measuring top-1 accuracy at each sweep rate:
//
//   - "full"          — the complete system
//   - "no-entropy"    — f(R) = |C_i(R)| without Equation 1's entropy factor
//   - "no-transition" — g ≡ 1 (K-GRI ignores route continuity)
//   - "no-splicing"   — Definition 7 spliced references disabled
//   - "no-trim"       — global-route end trimming disabled
func (w *World) Ablations() *Table {
	t := &Table{Figure: "A1", Title: "Ablations: top-1 accuracy",
		XLabel: "SR (min)", YLabel: "A_L"}
	variants := []struct {
		name  string
		apply func(*core.Params)
	}{
		{"full", func(*core.Params) {}},
		{"no-entropy", func(p *core.Params) { p.AblateEntropy = true }},
		{"no-transition", func(p *core.Params) { p.AblateTransition = true }},
		{"no-splicing", func(p *core.Params) { p.SpliceEps = 0 }},
		{"no-trim", func(p *core.Params) { p.AblateTrim = true }},
	}
	for i, sr := range sweepRates {
		qs := w.Queries(w.Cfg.Queries, sr*60, w.Cfg.QueryLen, w.Cfg.Seed+int64(i)*709)
		for _, v := range variants {
			p := w.P
			v.apply(&p)
			t.Add(v.name, sr, w.meanAccuracy(qs, top1(w.Eng, p)))
		}
	}
	return t
}

// TemporalExtension evaluates the paper's future-work extension (§VI):
// on a world whose travel patterns flip between AM and PM, it compares
// HRIS with and without time-of-day reference filtering on PM queries
// (whose patterns differ from the plain archive majority the untimed
// system would lean on).
func TemporalExtension(cfg WorldConfig) *Table {
	t := &Table{Figure: "E1", Title: "Temporal extension: PM queries on time-varying patterns",
		XLabel: "SR (min)", YLabel: "A_L"}
	w := newWorld(cfg, true)
	const pmStart = 61200.0 // 17:00
	for i, sr := range sweepRates {
		qs := sampleQueries(cfg.Queries, cfg.Seed+int64(i)*811, func(rng *rand.Rand) (sim.QueryCase, bool) {
			return w.DS.GenQueryAt(pmStart, cfg.QueryLen, sr*60, cfg.Noise, w.Fleet, rng)
		})
		p := w.P
		p.TemporalWeighting = false
		t.Add("untimed", sr, w.meanAccuracy(qs, top1(w.Eng, p)))
		p.TemporalWeighting = true
		t.Add("time-filtered", sr, w.meanAccuracy(qs, top1(w.Eng, p)))
	}
	return t
}

// NetworkFreeExtension evaluates the paper's §VI future-work case where no
// road network is available: per sweep rate it reports the mean
// deviation (meters) between the ground-truth path and (a) the top
// network-free inferred polyline and (b) straight-line interpolation of
// the query points — the only route estimate available without history.
func (w *World) NetworkFreeExtension() *Table {
	t := &Table{Figure: "E2", Title: "Network-free inference: mean path deviation",
		XLabel: "SR (min)", YLabel: "deviation (m)"}
	for i, sr := range sweepRates {
		qs := w.Queries(w.Cfg.Queries, sr*60, w.Cfg.QueryLen, w.Cfg.Seed+int64(i)*877)
		var devInf, devStraight float64
		n := 0
		for _, qc := range qs {
			truth := qc.Truth.Points(w.Graph())
			paths, err := w.Eng.InferPathsNetworkFreeCtx(context.Background(), qc.Query, w.P, w.Graph().MaxSpeed())
			if err != nil || len(paths) == 0 {
				continue
			}
			var straight geo.Polyline
			for _, p := range qc.Query.Points {
				straight = append(straight, p.Pt)
			}
			devInf += geo.Deviation(truth, paths[0].Path, 50)
			devStraight += geo.Deviation(truth, straight, 50)
			n++
		}
		if n == 0 {
			continue
		}
		t.Add("network-free HRIS", sr, devInf/float64(n))
		t.Add("straight-line", sr, devStraight/float64(n))
	}
	return t
}
