package eval

import (
	"context"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// SessionProfile is the streaming-session figure (-fig sessions): the same
// queries pushed point-by-point through core.Session at provisional window
// sizes of 1–16 pairs. Per window it reports the mean firm lag (pairs whose
// answer may still change under future evidence) and the agreement (A_L)
// between each update's provisional route and what a full offline inference
// over the same prefix would return. A larger window merges more of the
// open tail into each update, so agreement with the full requery rises; the
// firm lag is a property of the evidence (how fast the K-GRI posterior's
// prefix settles), not of the window, so it stays flat across the sweep.
func (w *World) SessionProfile() *Table {
	t := &Table{
		Figure: "sessions",
		Title:  "Streaming sessions: provisional window vs firm lag and agreement",
		XLabel: "window (pairs)",
		YLabel: "pairs | A_L",
	}
	qs := w.Queries(w.Cfg.Queries, 180, w.Cfg.QueryLen, w.Cfg.Seed+311)
	if len(qs) == 0 {
		return t
	}
	// Offline per-prefix references, shared across windows: the window only
	// changes how much of the posterior each update exposes, never the
	// posterior itself, so the requery baseline is window-independent.
	prefixBest := make([][]roadnet.Route, len(qs))
	for qi, qc := range qs {
		pts := qc.Query.Points
		prefixBest[qi] = make([]roadnet.Route, len(pts))
		for i := 1; i < len(pts); i++ {
			prefix := &traj.Trajectory{ID: qc.Query.ID, Points: pts[:i+1]}
			if res, err := w.Eng.InferRoutes(prefix, w.P); err == nil && len(res.Routes) > 0 {
				prefixBest[qi][i] = res.Routes[0].Route
			}
		}
	}
	ctx := context.Background()
	for _, win := range []int{1, 2, 4, 8, 16} {
		var lagSum, alSum float64
		var lagN, alN int
		for qi, qc := range qs {
			s := w.Eng.NewSession(w.P, core.SessionConfig{Window: win})
			for i, pt := range qc.Query.Points {
				upd, err := s.Push(ctx, pt)
				if err != nil {
					break
				}
				if i == 0 {
					continue
				}
				lagSum += float64(upd.Pairs - upd.FirmPairs)
				lagN++
				if best := prefixBest[qi][i]; len(best) > 0 && len(upd.Provisional) > 0 {
					alSum += AccuracyAL(w.Graph(), best, upd.Provisional)
					alN++
				}
			}
			s.Close()
		}
		x := float64(win)
		if lagN > 0 {
			t.Add("firm_lag_pairs", x, lagSum/float64(lagN))
		}
		if alN > 0 {
			t.Add("provisional_AL", x, alSum/float64(alN))
		}
	}
	return t
}
