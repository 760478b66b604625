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

// hrisTop1 runs HRIS with the world's baseline params and returns the best
// route.
func (w *World) hrisTop1(q *traj.Trajectory) (roadnet.Route, bool) {
	return w.hrisWith(w.P)(q)
}

// hrisWith binds one parameter set into a top-1 inference function: the
// experiment sweeps build their variants as value copies of w.P, so they
// never mutate shared state and may even run concurrently.
func (w *World) hrisWith(p core.Params) func(*traj.Trajectory) (roadnet.Route, bool) {
	return func(q *traj.Trajectory) (roadnet.Route, bool) {
		res, err := w.Eng.InferRoutes(q, p)
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

func matcherFn(m mapmatch.Matcher) func(*traj.Trajectory) (roadnet.Route, bool) {
	return func(q *traj.Trajectory) (roadnet.Route, bool) {
		r, err := m.Match(q)
		return r, err == nil
	}
}

// Figure8a compares HRIS against the three map-matching competitors across
// sampling rates of 3–15 minutes between samples.
func (w *World) Figure8a() *Table {
	t := &Table{Figure: "8a", Title: "Accuracy vs sampling rate",
		XLabel: "SR (min)", YLabel: "A_L"}
	for i, sr := range []float64{3, 6, 9, 12, 15} {
		qs := w.Queries(w.Cfg.Queries, sr*60, w.Cfg.QueryLen, w.Cfg.Seed+int64(i)*101)
		t.Add("HRIS", sr, w.meanAccuracy(qs, w.hrisTop1))
		t.Add("IVMM", sr, w.meanAccuracy(qs, matcherFn(w.IVMM)))
		t.Add("ST-matching", sr, w.meanAccuracy(qs, matcherFn(w.ST)))
		t.Add("incremental", sr, w.meanAccuracy(qs, matcherFn(w.Incremental)))
	}
	return t
}

// Figure8b compares the approaches across query lengths of 6–18 km at the
// default sampling rate (3 min).
func (w *World) Figure8b() *Table {
	t := &Table{Figure: "8b", Title: "Accuracy vs query length",
		XLabel: "L (km)", YLabel: "A_L"}
	for i, lk := range []float64{6, 9, 12, 15, 18} {
		qs := w.Queries(w.Cfg.Queries, 180, lk*1000, w.Cfg.Seed+int64(i)*211)
		t.Add("HRIS", lk, w.meanAccuracy(qs, w.hrisTop1))
		t.Add("IVMM", lk, w.meanAccuracy(qs, matcherFn(w.IVMM)))
		t.Add("ST-matching", lk, w.meanAccuracy(qs, matcherFn(w.ST)))
		t.Add("incremental", lk, w.meanAccuracy(qs, matcherFn(w.Incremental)))
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
		name := seriesSR(sr)
		for _, phi := range []float64{50, 100, 200, 400, 600, 900} {
			p := w.P
			p.Phi = phi
			start := time.Now()
			a := w.meanAccuracy(qs, w.hrisWith(p))
			elapsed := time.Since(start)
			acc.Add(name, phi, a)
			tim.Add(name, phi, msPerQuery(elapsed, len(qs)))
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
			start := time.Now()
			var accSum, denSum float64
			var denN int
			for _, qc := range qs {
				res, err := w.Eng.InferRoutes(qc.Query, p)
				if err != nil || len(res.Routes) == 0 {
					continue
				}
				accSum += AccuracyAL(w.Graph(), qc.Truth, res.Routes[0].Route)
				for _, ps := range res.Pairs {
					if ps.Points > 0 && !isInf(ps.Density) {
						denSum += ps.Density
						denN++
					}
				}
			}
			elapsed := time.Since(start)
			if denN == 0 || len(qs) == 0 {
				continue
			}
			rho := denSum / float64(denN)
			acc.Add(m.String(), rho, accSum/float64(len(qs)))
			tim.Add(m.String(), rho, msPerQuery(elapsed, len(qs)))
		}
	}
	return acc, tim
}

// Figure11 sweeps λ over 1–8: 11a accuracy per sweep rate (TGI), 11b TGI
// time with and without graph reduction.
func (w *World) Figure11() (*Table, *Table) {
	acc := &Table{Figure: "11a", Title: "Accuracy vs λ (TGI)",
		XLabel: "lambda", YLabel: "A_L"}
	tim := &Table{Figure: "11b", Title: "TGI time vs λ, with/without graph reduction",
		XLabel: "lambda", YLabel: "ms/query"}
	lambdas := []int{1, 2, 3, 4, 5, 6, 7, 8}
	base := w.P
	base.Method = core.MethodTGI
	for _, sr := range sweepRates {
		qs := w.Queries(w.Cfg.Queries, sr*60, w.Cfg.QueryLen, w.Cfg.Seed+int64(sr)*401)
		for _, l := range lambdas {
			p := base
			p.Lambda = l
			p.GraphReduction = true
			acc.Add(seriesSR(sr), float64(l), w.meanAccuracy(qs, w.hrisWith(p)))
		}
	}
	qs := w.Queries(w.Cfg.Queries, 180, w.Cfg.QueryLen, w.Cfg.Seed+997)
	for _, l := range lambdas {
		for _, red := range []bool{true, false} {
			p := base
			p.Lambda = l
			p.GraphReduction = red
			start := time.Now()
			w.meanAccuracy(qs, w.hrisWith(p))
			elapsed := time.Since(start)
			name := "no reduction"
			if red {
				name = "with reduction"
			}
			tim.Add(name, float64(l), msPerQuery(elapsed, len(qs)))
		}
	}
	return acc, tim
}

// Figure12 sweeps k1 (K of the K-shortest-path search in TGI) over 1–10:
// accuracy per sweep rate (12a) and time with/without reduction (12b).
func (w *World) Figure12() (*Table, *Table) {
	acc := &Table{Figure: "12a", Title: "Accuracy vs k1 (TGI K-shortest paths)",
		XLabel: "k1", YLabel: "A_L"}
	tim := &Table{Figure: "12b", Title: "TGI time vs k1, with/without graph reduction",
		XLabel: "k1", YLabel: "ms/query"}
	k1s := []int{1, 2, 4, 6, 8, 10}
	base := w.P
	base.Method = core.MethodTGI
	for _, sr := range sweepRates {
		qs := w.Queries(w.Cfg.Queries, sr*60, w.Cfg.QueryLen, w.Cfg.Seed+int64(sr)*503)
		for _, k := range k1s {
			p := base
			p.K1 = k
			p.GraphReduction = true
			acc.Add(seriesSR(sr), float64(k), w.meanAccuracy(qs, w.hrisWith(p)))
		}
	}
	qs := w.Queries(w.Cfg.Queries, 180, w.Cfg.QueryLen, w.Cfg.Seed+1009)
	for _, k := range k1s {
		for _, red := range []bool{true, false} {
			p := base
			p.K1 = k
			p.GraphReduction = red
			start := time.Now()
			w.meanAccuracy(qs, w.hrisWith(p))
			elapsed := time.Since(start)
			name := "no reduction"
			if red {
				name = "with reduction"
			}
			tim.Add(name, float64(k), msPerQuery(elapsed, len(qs)))
		}
	}
	return acc, tim
}

// Figure13 sweeps k2 (NNI fan-out) over 1–8: accuracy per sweep rate (13a)
// and time with/without substructure sharing (13b).
func (w *World) Figure13() (*Table, *Table) {
	acc := &Table{Figure: "13a", Title: "Accuracy vs k2 (NNI)",
		XLabel: "k2", YLabel: "A_L"}
	tim := &Table{Figure: "13b", Title: "NNI time vs k2, with/without substructure sharing",
		XLabel: "k2", YLabel: "ms/query"}
	k2s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	base := w.P
	base.Method = core.MethodNNI
	for _, sr := range sweepRates {
		qs := w.Queries(w.Cfg.Queries, sr*60, w.Cfg.QueryLen, w.Cfg.Seed+int64(sr)*601)
		for _, k := range k2s {
			p := base
			p.K2 = k
			p.ShareSubstructures = true
			acc.Add(seriesSR(sr), float64(k), w.meanAccuracy(qs, w.hrisWith(p)))
		}
	}
	qs := w.Queries(w.Cfg.Queries, 180, w.Cfg.QueryLen, w.Cfg.Seed+1013)
	for _, k := range k2s {
		for _, share := range []bool{true, false} {
			p := base
			p.K2 = k
			p.ShareSubstructures = share
			start := time.Now()
			w.meanAccuracy(qs, w.hrisWith(p))
			elapsed := time.Since(start)
			name := "no sharing"
			if share {
				name = "with sharing"
			}
			tim.Add(name, float64(k), msPerQuery(elapsed, len(qs)))
		}
	}
	return acc, tim
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
		reps := 5
		start := time.Now()
		for r := 0; r < reps; r++ {
			core.KGRI(w.Graph(), sub, w.P.K3)
		}
		kgriUS := float64(time.Since(start).Microseconds()) / float64(reps)
		start = time.Now()
		for r := 0; r < reps; r++ {
			core.BruteForceGlobalRoutes(w.Graph(), sub, w.P.K3)
		}
		bruteUS := float64(time.Since(start).Microseconds()) / float64(reps)
		t.Add("K-GRI", float64(n), kgriUS)
		t.Add("brute-force", float64(n), bruteUS)
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

func isInf(f float64) bool { return math.IsInf(f, 1) }
