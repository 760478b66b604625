package core

import (
	"fmt"
	"io"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// realTraceDigests pins, per world × ShareSubstructures × CandEps, the route
// (or error) every transit trace of a fixed query mix converts to, in
// enumeration order. The digests were recorded on this change's parent from
// the float-keyed, one-trace-at-a-time projector that
// mapmatch/projector_oracle_test.go preserves (that package cannot import
// this one, so its own equivalence test drives the oracle with synthetic
// trie-ordered batches; the real batches are pinned here). Six were
// re-recorded once when candidate edges got a total order: equidistant
// candidates now break ties by EdgeID, not by the old R-tree's leaf order
// (the two ε-30 keys of world 7 meet no such tie and kept their digests).
var realTraceDigests = map[string]string{
	"191 true 30":  "4e9b2d15c3de49cb8a2c045d1361609444d0181fd0286bdd07641168ce73ed72",
	"191 true 50":  "106281fe2bd71978b7b995874e2637e148416fca5826201f1423e4872e4c8d9b",
	"191 false 30": "cffcf462d529e23c22ecda31bb72f3abc71beb39966171f9add093f782a058d6",
	"191 false 50": "06c6c49fa2c398d19733765f310a096e5d670cd45e833c47d5ae5e4de8664d0b",
	"7 true 30":    "19f48bf3865a79b4bb50a9ee34f72e044cb50f724a7e2697c59b9121f1db22db",
	"7 true 50":    "2248bcd77f0964d2926ca52e43516bc307f6da0495fec163de4729674a96a606",
	"7 false 30":   "0e1984a51bd168ddbda7b27f9d3a92e7d13e4915d5ae248d4a63d696b6f38c5f",
	"7 false 50":   "bba7ba0b155f08ed16206e61ef19beb30dde43246bdb4a29320c3c4be7188a05",
}

// TestProjectorOracleRealTraces converts the real trace batches of
// enumerateTransitTraces three ways — the arena's projector exactly as
// inferNNI drives it (resuming trace to trace, candidates off the match
// tables), a fresh projector per trace with no row source (every point
// searched, nothing resumed), and the recorded output of the old projector —
// and demands the same route and error for every trace, in order.
func TestProjectorOracleRealTraces(t *testing.T) {
	for _, seed := range []int64{191, 7} {
		for _, share := range []bool{true, false} {
			for _, eps := range []float64{30, 50} {
				key := fmt.Sprintf("%d %v %v", seed, share, eps)
				traces, resumed := 0, 0
				got := goldenDigest(t, seed, 12, func(w *world, h io.Writer, q *traj.Trajectory) {
					p := w.p
					p.ShareSubstructures, p.CandEps = share, eps
					x := w.eng.newExec(t.Context(), p, w.eng.src.Current())
					x.sc = newPairScratch()
					sc := x.sc
					mprm := mapmatch.DefaultParams()
					mprm.CandidateRadius = eps
					forEachPair(x, q, func(i int, pctx *pairContext) {
						off := enumerateTransitTraces(sc, pctx.points, pctx.qi.Pt, pctx.qj.Pt, p, nil)
						sc.pj.Reset(w.g, mprm, sc.nniPts, sc, &sc.bridges)
						fmt.Fprintf(h, "\nP%d", i)
						for n := 0; n+1 < len(off); n++ {
							tr := sc.traces[off[n]:off[n+1]]
							if n > 0 && len(tr) > 2 && tr[1] == sc.traces[off[n-1]+1] {
								resumed++
							}
							traces++
							route, err := sc.pj.Project(x.ctx, tr)
							var fresh mapmatch.Projector
							var br roadnet.Bridges
							br.Reset(w.g)
							fresh.Reset(w.g, mprm, sc.nniPts, nil, &br)
							if plain, perr := fresh.Project(x.ctx, tr); perr != err || !plain.Equal(route) {
								t.Fatalf("%s pair %d trace %d: resumed off the tables %v, %v; from scratch by search %v, %v",
									key, i, n, route, err, plain, perr)
							}
							if err != nil {
								route = nil // the old projector returned no route with an error
							}
							fmt.Fprintf(h, "\nT %v %v", route, err)
						}
					})
				})
				if got != realTraceDigests[key] {
					t.Errorf("%s: digest %s, want %s — a trace converts to a different route", key, got, realTraceDigests[key])
				}
				if resumed*2 < traces {
					t.Errorf("%s: only %d of %d traces share a prefix with their predecessor; the batches no longer exercise the resume", key, resumed, traces)
				}
			}
		}
	}
}

// TestCandidatesFromMatchTable: for every archive point and every ε the
// tables are built at, the candidates NNI's projector derives from the
// point's match-table row — CandidateOn over the row's first MaxCandidates
// edges — are element-wise (edge, projection, distance and offset bits) what
// the matchers' candidate search returns; an empty row means the search finds
// nothing inside ε either, and the projector falls back to it (widening).
func TestCandidatesFromMatchTable(t *testing.T) {
	w := newWorld(t, 120, 77)
	max := mapmatch.DefaultParams().MaxCandidates
	sc := newPairScratch()
	for _, eps := range []float64{30, 50, 120} {
		points, empty, capped := 0, 0, 0
		v := w.eng.src.Current()
		for ti := 0; ti < v.NumTrajs(); ti++ {
			tr := v.Traj(ti)
			sc.tabs = append(sc.tabs[:0], w.eng.match.get(tr, eps))
			for k, gp := range tr.Points {
				sc.nniSrc = append(sc.nniSrc[:0], sampleID{tab: 0, k: int32(k)})
				row := sc.CandidateRow(1, nil)
				want := w.g.CandidateEdges(gp.Pt, eps)
				if len(row) != len(want) {
					t.Fatalf("eps %v traj %d point %d: row has %d edges, CandidateEdges %d", eps, ti, k, len(row), len(want))
				}
				points++
				if len(want) == 0 {
					empty++
				}
				if len(want) > max {
					capped++
					row, want = row[:max], want[:max]
				}
				for i, e := range row {
					if got := w.g.CandidateOn(gp.Pt, e); got != want[i] {
						t.Fatalf("eps %v traj %d point %d candidate %d: from the row %+v, searched %+v", eps, ti, k, i, got, want[i])
					}
				}
			}
		}
		if row := sc.CandidateRow(0, nil); row != nil {
			t.Fatalf("the query point's slot has a row: %v", row)
		}
		if row := sc.CandidateRow(2, nil); row != nil {
			t.Fatalf("the slot past the archive points has a row: %v", row)
		}
		if eps == 30 && empty == 0 || eps == 120 && capped == 0 {
			t.Fatalf("eps %v: %d points, %d with no candidate, %d with more than %d — the world no longer covers both ends", eps, points, empty, capped, max)
		}
	}
}

// TestRefPointSize pins the reference-point layout: a pair lists hundreds of
// these per arena, so the list's size is the arena's (and a visible part of
// the server's) footprint. The archive-sample identity must stay two
// integers — a pointer would add 8 bytes and a GC scan of every list.
func TestRefPointSize(t *testing.T) {
	if s := unsafe.Sizeof(refPoint{}); s > 48 {
		t.Fatalf("refPoint is %d bytes, budget 48", s)
	}
	id := reflect.TypeOf(sampleID{})
	for i := 0; i < id.NumField(); i++ {
		if k := id.Field(i).Type.Kind(); k != reflect.Int32 {
			t.Fatalf("sampleID.%s is a %v; the sample identity must be integers", id.Field(i).Name, k)
		}
	}
}
