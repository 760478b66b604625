package core

import (
	"context"
	"errors"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/hist"
	"repro/internal/traj"
)

// FreeRoute is a route inferred without a road network: a polyline through
// reference points, with the archive trajectories supporting it and a
// popularity-style score. It realizes the paper's second future-work item
// (§VI): "extend our solution to deal with the case where the road network
// is not available".
type FreeRoute struct {
	Path  geo.Polyline
	Score float64
	// Support holds the supporting archive trajectory ids, sorted ascending
	// (the LocalRoute.Refs representation).
	Support []int32
}

// ErrNoFreePath is returned when no network-free path can be assembled.
var ErrNoFreePath = errors.New("core: no network-free path inferred")

// InferPathsNetworkFreeCtx suggests up to p.K3 paths for a query without
// any road network: per consecutive pair, the reference search (with vmax
// as the feasibility speed, since no network supplies V_max; memoized like
// every engine search) feeds the same transit-graph recursion NNI uses, but
// the enumerated traces are kept as polylines instead of being map-matched;
// a K-GRI-style dynamic program over support sets assembles the global
// paths. Like every other engine entry point it pins one archive snapshot
// for the whole call.
//
// Cancellation of any kind — network-free inference has no degraded mode —
// aborts with the context's error at the next per-pair or DP checkpoint.
func (e *Engine) InferPathsNetworkFreeCtx(ctx context.Context, q *traj.Trajectory, p Params, vmax float64) ([]FreeRoute, error) {
	if q.Len() < 2 {
		return nil, ErrEmptyQuery
	}
	snap, done := e.src.Current(), ctx.Done()
	// The transit-trace recursion runs off a pooled scratch arena here just
	// like the network-backed path; everything published below (polylines,
	// support sets) is freshly built, so nothing aliases the arena.
	sc := e.getScratch()
	defer e.putScratch(sc)
	sp := hist.SearchParams{
		Phi: p.Phi, SpliceEps: p.SpliceEps,
		SpliceMinSimple: p.SpliceMinSimple, VMax: vmax,
	}
	// locals[i] holds the pair's candidate point-paths; sets[i] holds the
	// same candidates as the network DP's local routes — support as Refs,
	// |support| + smoothing as popularity — so K-GRI's own primitives rank
	// them: score = ∏(|support|+smoothing) · ∏ g(transition).
	type freeLocal struct {
		path    geo.Polyline
		support []int32 // sorted, distinct
	}
	var locals [][]freeLocal
	var sets [][]LocalRoute
	for i := 0; i+1 < q.Len(); i++ {
		if graphalg.Stopped(done) {
			return nil, ctx.Err()
		}
		qi, qj := q.Points[i], q.Points[i+1]
		refs := e.refs.ReferencesOn(ctx, snap, qi, qj, sp, &sc.search, nil)
		var pts []refPoint
		var owner []int // pts[i] is a point of refs[owner[i]]
		for ri, r := range refs {
			a, b := r.Runs(snap)
			for _, gp := range slices.Concat(a, b) {
				pts, owner = append(pts, refPoint{pt: gp.Pt}), append(owner, ri)
			}
		}
		off := enumerateTransitTraces(sc, pts, qi.Pt, qj.Pt, p, done)
		// A table point is supported by the sources of every reference point
		// that collapsed into its cell.
		sources := make([][]int32, len(sc.nniPts))
		for i, rp := range pts {
			r, slot := refs[owner[i]], sc.dedupIdx[cellKey(rp.pt)]
			sources[slot] = append(sources[slot], r.SourceA)
			if r.SourceB >= 0 {
				sources[slot] = append(sources[slot], r.SourceB)
			}
		}
		var cands []freeLocal
		seen := make(map[uint64][]geo.Polyline)
		for t := 0; t+1 < len(off); t++ {
			// A fresh slice per trace: paths outlive the iteration and the
			// scratch the trace indexes.
			tr := sc.traces[off[t]:off[t+1]]
			path := make(geo.Polyline, len(tr))
			var support []int32
			for i, node := range tr {
				path[i] = sc.nniPts[node]
				support = append(support, sources[node]...)
			}
			support = sortedSet(support)
			h := pathHash(path)
			dup := false
			for _, prev := range seen[h] {
				if samePathKey(prev, path) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen[h] = append(seen[h], path)
			cands = append(cands, freeLocal{path: path, support: support})
		}
		if len(cands) == 0 {
			// No references: interpolate straight between the points.
			cands = []freeLocal{{path: geo.Polyline{qi.Pt, qj.Pt}}}
		}
		sort.SliceStable(cands, func(x, y int) bool {
			return len(cands[x].support) > len(cands[y].support)
		})
		if p.MaxLocalRoutes > 0 && len(cands) > p.MaxLocalRoutes {
			cands = cands[:p.MaxLocalRoutes]
		}
		set := make([]LocalRoute, len(cands))
		for j, c := range cands {
			set[j] = LocalRoute{Refs: c.support, Popularity: float64(len(c.support)) + entropySmoothing}
		}
		locals, sets = append(locals, cands), append(sets, set)
	}

	post := newPosterior(p.K3, false)
	for i, set := range sets {
		if i > 0 && graphalg.Stopped(done) {
			return nil, ctx.Err()
		}
		post.push(set)
	}
	all := post.rank()
	if len(all) == 0 {
		return nil, ErrNoFreePath
	}
	out := make([]FreeRoute, 0, len(all))
	for _, fp := range all {
		var path geo.Polyline
		var support []int32
		for i, j := range fp.Parts {
			part := locals[i][j].path
			if len(path) > 0 && len(part) > 0 && path[len(path)-1].Equal(part[0], 1e-9) {
				part = part[1:]
			}
			path = append(path, part...)
			support = append(support, locals[i][j].support...)
		}
		out = append(out, FreeRoute{Path: path, Score: fp.Score, Support: sortedSet(support)})
	}
	return out, nil
}

// sortedSet sorts ids in place and drops duplicates.
func sortedSet(ids []int32) []int32 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// pathHash folds a polyline's coarse (50 m resolution) coordinate key into
// an FNV-1a hash — byte-for-byte the stream the old string key carried, so
// the dedup resolution is unchanged. Buckets are verified with samePathKey,
// so a hash collision can never drop a distinct path.
func pathHash(p geo.Polyline) uint64 {
	h := uint64(fnvOffset64)
	for _, pt := range p {
		x, y := int(pt.X/50), int(pt.Y/50)
		for _, b := range [4]byte{byte(x), byte(x >> 8), byte(y), byte(y >> 8)} {
			h ^= uint64(b)
			h *= fnvPrime64
		}
	}
	return h
}

// samePathKey reports whether two polylines share the coarse dedup key —
// equal length and equal 50 m cell coordinates truncated to 16 bits, exactly
// the equality the old string key encoded.
func samePathKey(a, b geo.Polyline) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if uint16(int(a[i].X/50)) != uint16(int(b[i].X/50)) ||
			uint16(int(a[i].Y/50)) != uint16(int(b[i].Y/50)) {
			return false
		}
	}
	return true
}
