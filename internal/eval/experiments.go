package eval

import (
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

// sweepRates are the sampling intervals (minutes) at which every per-rate
// sweep — Figures 9, 11a, 12a, 13a, A1, E1 and E2 — is repeated.
var sweepRates = []float64{3, 9, 15}

// top1 binds an engine and one parameter set into a top-1 inference
// function: the experiment sweeps build their variants as value copies of
// w.P, so they never mutate shared state and may even run concurrently.
func top1(eng *core.Engine, p core.Params) func(*traj.Trajectory) (roadnet.Route, bool) {
	return func(q *traj.Trajectory) (roadnet.Route, bool) {
		res, err := eng.InferRoutes(q, p)
		if err != nil || len(res.Routes) == 0 {
			return nil, false
		}
		return res.Routes[0].Route, true
	}
}

// meanAccuracy runs fn over the queries and averages A_L (failures score 0).
func (w *World) meanAccuracy(qs []sim.QueryCase, fn func(*traj.Trajectory) (roadnet.Route, bool)) float64 {
	if len(qs) == 0 {
		return 0
	}
	var sum float64
	for _, qc := range qs {
		if route, ok := fn(qc.Query); ok {
			sum += AccuracyAL(w.Graph(), qc.Truth, route)
		}
	}
	return sum / float64(len(qs))
}

// msPerQuery is the mean wall clock of n queries that took d in total, in
// fractional milliseconds (n < 1 counts as one query).
func msPerQuery(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Millisecond) / float64(max(1, n))
}

// timed runs f, which serves n queries, and returns its msPerQuery: every
// time column of the figures is measured here.
func timed(n int, f func()) float64 {
	start := time.Now()
	f()
	return msPerQuery(time.Since(start), n)
}

func matcherFn(m mapmatch.Matcher) func(*traj.Trajectory) (roadnet.Route, bool) {
	return func(q *traj.Trajectory) (roadnet.Route, bool) {
		r, err := m.Match(q)
		return r, err == nil
	}
}

// addCompetitors adds the accuracy of HRIS and of the three map-matching
// competitors on qs at x.
func (w *World) addCompetitors(t *Table, x float64, qs []sim.QueryCase) {
	t.Add("HRIS", x, w.meanAccuracy(qs, top1(w.Eng, w.P)))
	t.Add("IVMM", x, w.meanAccuracy(qs, matcherFn(w.IVMM)))
	t.Add("ST-matching", x, w.meanAccuracy(qs, matcherFn(w.ST)))
	t.Add("incremental", x, w.meanAccuracy(qs, matcherFn(w.Incremental)))
}

// Figure8a compares HRIS against the three map-matching competitors across
// sampling rates of 3–15 minutes between samples.
func (w *World) Figure8a() *Table {
	t := &Table{Figure: "8a", Title: "Accuracy vs sampling rate",
		XLabel: "SR (min)", YLabel: "A_L"}
	for i, sr := range []float64{3, 6, 9, 12, 15} {
		w.addCompetitors(t, sr, w.Queries(w.Cfg.Queries, sr*60, w.Cfg.QueryLen, w.Cfg.Seed+int64(i)*101))
	}
	return t
}

// Figure8b compares the approaches across query lengths of 6–18 km at the
// default sampling rate (3 min).
func (w *World) Figure8b() *Table {
	t := &Table{Figure: "8b", Title: "Accuracy vs query length",
		XLabel: "L (km)", YLabel: "A_L"}
	for i, lk := range []float64{6, 9, 12, 15, 18} {
		w.addCompetitors(t, lk, w.Queries(w.Cfg.Queries, 180, lk*1000, w.Cfg.Seed+int64(i)*211))
	}
	return t
}

// Figure9 sweeps the reference search radius φ over 50–900 m for each sweep
// rate, reporting accuracy (9a) and mean per-query running time in ms (9b).
func (w *World) Figure9() (*Table, *Table) {
	acc := &Table{Figure: "9a", Title: "Accuracy vs reference search range φ",
		XLabel: "phi (m)", YLabel: "A_L"}
	tim := &Table{Figure: "9b", Title: "Running time vs φ",
		XLabel: "phi (m)", YLabel: "ms/query"}
	for _, sr := range sweepRates {
		qs := w.Queries(w.Cfg.Queries, sr*60, w.Cfg.QueryLen, w.Cfg.Seed+int64(sr)*307)
		for _, phi := range []float64{50, 100, 200, 400, 600, 900} {
			p := w.P
			p.Phi = phi
			var a float64
			ms := timed(len(qs), func() { a = w.meanAccuracy(qs, top1(w.Eng, p)) })
			acc.Add(seriesSR(sr), phi, a)
			tim.Add(seriesSR(sr), phi, ms)
		}
	}
	return acc, tim
}

// Figure10 compares TGI and NNI as the reference-point density varies:
// archives of 15 to 1200 trips shift the per-pair density up. The x axis is
// the measured mean density (points/km²); 10a reports accuracy, 10b mean
// per-query time in ms.
func Figure10(cfg WorldConfig) (*Table, *Table) {
	acc := &Table{Figure: "10a", Title: "Accuracy vs reference density ρ (TGI vs NNI)",
		XLabel: "rho (pts/km^2)", YLabel: "A_L"}
	tim := &Table{Figure: "10b", Title: "Running time vs ρ (TGI vs NNI)",
		XLabel: "rho (pts/km^2)", YLabel: "ms/query"}
	for _, trips := range []int{15, 50, 150, 400, 1200} {
		c := cfg
		c.Trips = trips
		w := NewWorld(c)
		qs := w.Queries(c.Queries, 180, c.QueryLen, c.Seed+int64(trips))
		for _, m := range []core.Method{core.MethodTGI, core.MethodNNI} {
			p := w.P
			p.Method = m
			var accSum, denSum float64
			var denN int
			ms := timed(len(qs), func() {
				for _, qc := range qs {
					res, err := w.Eng.InferRoutes(qc.Query, p)
					if err != nil || len(res.Routes) == 0 {
						continue
					}
					accSum += AccuracyAL(w.Graph(), qc.Truth, res.Routes[0].Route)
					for _, ps := range res.Pairs {
						if ps.Points > 0 && !math.IsInf(ps.Density, 1) {
							denSum += ps.Density
							denN++
						}
					}
				}
			})
			if denN == 0 || len(qs) == 0 {
				continue
			}
			rho := denSum / float64(denN)
			acc.Add(m.String(), rho, accSum/float64(len(qs)))
			tim.Add(m.String(), rho, ms)
		}
	}
	return acc, tim
}

// toggleSweep is the shape Figures 11, 12 and 13 share: one integer
// parameter of one method swept at every sweep rate for accuracy with a
// cost-saving switch on (the a table), then on one 3-minute query set for
// time with the switch on and off (the b table, series "with <what>" and
// "no <what>").
type toggleSweep struct {
	fig, accTitle, timTitle, x string
	method                     core.Method
	values                     []int
	set                        func(p *core.Params, v int)
	toggle                     func(p *core.Params, on bool)
	what                       string
	accSeed, timSeed           int64 // accSeed steps per sweep rate
}

func (w *World) sweep(s toggleSweep) (*Table, *Table) {
	acc := &Table{Figure: s.fig + "a", Title: s.accTitle, XLabel: s.x, YLabel: "A_L"}
	tim := &Table{Figure: s.fig + "b", Title: s.timTitle, XLabel: s.x, YLabel: "ms/query"}
	run := func(qs []sim.QueryCase, v int, on bool) float64 {
		p := w.P
		p.Method = s.method
		s.set(&p, v)
		s.toggle(&p, on)
		return w.meanAccuracy(qs, top1(w.Eng, p))
	}
	for _, sr := range sweepRates {
		qs := w.Queries(w.Cfg.Queries, sr*60, w.Cfg.QueryLen, w.Cfg.Seed+int64(sr)*s.accSeed)
		for _, v := range s.values {
			acc.Add(seriesSR(sr), float64(v), run(qs, v, true))
		}
	}
	qs := w.Queries(w.Cfg.Queries, 180, w.Cfg.QueryLen, w.Cfg.Seed+s.timSeed)
	for _, v := range s.values {
		for _, on := range []bool{true, false} {
			name := "no " + s.what
			if on {
				name = "with " + s.what
			}
			tim.Add(name, float64(v), timed(len(qs), func() { run(qs, v, on) }))
		}
	}
	return acc, tim
}

// Figure11 sweeps λ over 1–8: 11a accuracy per sweep rate (TGI), 11b TGI
// time with and without graph reduction.
func (w *World) Figure11() (*Table, *Table) {
	return w.sweep(toggleSweep{
		fig: "11", x: "lambda", method: core.MethodTGI, values: []int{1, 2, 3, 4, 5, 6, 7, 8},
		accTitle: "Accuracy vs λ (TGI)",
		timTitle: "TGI time vs λ, with/without graph reduction",
		set:      func(p *core.Params, v int) { p.Lambda = v },
		toggle:   func(p *core.Params, on bool) { p.GraphReduction = on },
		what:     "reduction", accSeed: 401, timSeed: 997,
	})
}

// Figure12 sweeps k1 (K of the K-shortest-path search in TGI) over 1–10:
// accuracy per sweep rate (12a) and time with/without reduction (12b).
func (w *World) Figure12() (*Table, *Table) {
	return w.sweep(toggleSweep{
		fig: "12", x: "k1", method: core.MethodTGI, values: []int{1, 2, 4, 6, 8, 10},
		accTitle: "Accuracy vs k1 (TGI K-shortest paths)",
		timTitle: "TGI time vs k1, with/without graph reduction",
		set:      func(p *core.Params, v int) { p.K1 = v },
		toggle:   func(p *core.Params, on bool) { p.GraphReduction = on },
		what:     "reduction", accSeed: 503, timSeed: 1009,
	})
}

// Figure13 sweeps k2 (NNI fan-out) over 1–8: accuracy per sweep rate (13a)
// and time with/without substructure sharing (13b).
func (w *World) Figure13() (*Table, *Table) {
	return w.sweep(toggleSweep{
		fig: "13", x: "k2", method: core.MethodNNI, values: []int{1, 2, 3, 4, 5, 6, 7, 8},
		accTitle: "Accuracy vs k2 (NNI)",
		timTitle: "NNI time vs k2, with/without substructure sharing",
		set:      func(p *core.Params, v int) { p.K2 = v },
		toggle:   func(p *core.Params, on bool) { p.ShareSubstructures = on },
		what:     "sharing", accSeed: 601, timSeed: 1013,
	})
}

// Figure14a sweeps k3 (K-GRI's K) over 1–10: the average and maximum A_L
// over the returned top-k3 global routes.
func (w *World) Figure14a() *Table {
	t := &Table{Figure: "14a", Title: "Top-k3 average and maximum accuracy (K-GRI)",
		XLabel: "k3", YLabel: "A_L"}
	qs := w.Queries(w.Cfg.Queries, 180, w.Cfg.QueryLen, w.Cfg.Seed+1201)
	for _, k := range []int{1, 2, 3, 4, 5, 6, 8, 10} {
		p := w.P
		p.K3 = k
		var avgSum, maxSum float64
		n := 0
		for _, qc := range qs {
			res, err := w.Eng.InferRoutes(qc.Query, p)
			if err != nil || len(res.Routes) == 0 {
				continue
			}
			var sum, best float64
			for _, gr := range res.Routes {
				a := AccuracyAL(w.Graph(), qc.Truth, gr.Route)
				sum += a
				if a > best {
					best = a
				}
			}
			avgSum += sum / float64(len(res.Routes))
			maxSum += best
			n++
		}
		if n == 0 {
			continue
		}
		t.Add("avg", float64(k), avgSum/float64(n))
		t.Add("max", float64(k), maxSum/float64(n))
	}
	return t
}

// kgriLocals is Figure 14b's input: the local route sets of one long query
// (1.5× the world's query length), one set per query pair.
func (w *World) kgriLocals() [][]core.LocalRoute {
	qs := w.Queries(1, 180, w.Cfg.QueryLen*1.5, w.Cfg.Seed+1301)
	if len(qs) == 0 {
		return nil
	}
	res, err := w.Eng.InferRoutes(qs[0].Query, w.P)
	if err != nil {
		return nil
	}
	return res.Locals
}

// Figure14b compares K-GRI against brute-force enumeration on the first
// 2–7 local route sets of one query, reporting microseconds per call.
func (w *World) Figure14b() *Table {
	t := &Table{Figure: "14b", Title: "K-GRI vs brute-force global route search",
		XLabel: "pairs", YLabel: "us/call"}
	locals := w.kgriLocals()
	for n := 2; n <= min(7, len(locals)); n++ {
		sub := locals[:n]
		const reps = 5
		t.Add("K-GRI", float64(n), 1000*timed(reps, func() {
			for r := 0; r < reps; r++ {
				core.KGRI(w.Graph(), sub, w.P.K3)
			}
		}))
		t.Add("brute-force", float64(n), 1000*timed(reps, func() {
			for r := 0; r < reps; r++ {
				core.BruteForceGlobalRoutes(w.Graph(), sub, w.P.K3)
			}
		}))
	}
	return t
}

// DeadlineProfile sweeps the per-query deadline budget over 0–500 ms and
// reports how gracefully inference degrades: mean accuracy over the query
// set and the fraction of queries that returned a best-effort Degraded
// result. A deadline of 0 (no budget) is the baseline row. Failed queries
// (no route at all) score zero accuracy, like everywhere else in the
// harness. Each row runs on a fresh engine warmed by one unbudgeted pass: its
// match tables are built, and no query is served from the query memo,
// which keys on everything but the deadline and would answer a budgeted row
// from an earlier row's complete answers.
func (w *World) DeadlineProfile() *Table {
	t := &Table{Figure: "deadline", Title: "Graceful degradation vs per-query deadline",
		XLabel: "deadline (ms)", YLabel: "value"}
	qs := w.Queries(w.Cfg.Queries, 180, w.Cfg.QueryLen, w.Cfg.Seed+977)
	if len(qs) == 0 {
		return t
	}
	for _, ms := range []time.Duration{0, 1, 5, 20, 100, 500} {
		p := w.P
		p.Deadline = ms * time.Millisecond
		eng := core.NewEngine(w.Eng.Source(), w.P)
		for _, qc := range qs {
			_, _ = eng.InferRoutes(qc.Query, w.P)
		}
		var acc float64
		degraded := 0
		for _, qc := range qs {
			res, err := eng.InferRoutes(qc.Query, p)
			if err != nil || len(res.Routes) == 0 {
				continue
			}
			if res.Degraded {
				degraded++
			}
			acc += AccuracyAL(w.Graph(), qc.Truth, res.Routes[0].Route)
		}
		n := float64(len(qs))
		t.Add("A_L", float64(ms), acc/n)
		t.Add("degraded", float64(ms), float64(degraded)/n)
	}
	return t
}

func seriesSR(sr float64) string {
	return "SR=" + strconv.FormatFloat(sr, 'g', -1, 64) + "min"
}
