package mapmatch

import (
	"context"

	"repro/internal/geo"
	"repro/internal/graphalg"
	"repro/internal/roadnet"
)

// This file is the trace→route conversion as it stood before the projector
// was rebuilt around index sequences: one independent snap-then-stitch pass
// per point sequence, with the candidate search, the snap and the bridge
// memoized under float-valued keys. It is kept verbatim (identifiers prefixed
// "oracle" where the replacement reuses the name) as the reference
// TestProjectorOracleEquivalence compares the prefix-resumed projector with.
// Only snapPoint, candidatesFor and Route.AppendConcat are shared with
// production.

type oracleProjector struct {
	g       *roadnet.Graph
	prm     Params
	cands   map[geo.Point][]roadnet.Candidate
	snaps   map[oracleSnapKey]snapVal
	bridges map[[2]roadnet.Location]oracleBridge
}

type oracleBridge struct {
	part roadnet.Route
	ok   bool
}

// oracleSnapKey identifies a snap: the point, the neighbour the heading comes
// from, and which side that neighbour is on.
type oracleSnapKey struct {
	p, o geo.Point
	m    snapMode
}

func newOracleProjector(g *roadnet.Graph, prm Params) *oracleProjector {
	return &oracleProjector{
		g: g, prm: prm,
		cands:   make(map[geo.Point][]roadnet.Candidate),
		snaps:   make(map[oracleSnapKey]snapVal),
		bridges: make(map[[2]roadnet.Location]oracleBridge),
	}
}

func (pj *oracleProjector) candidates(p geo.Point) []roadnet.Candidate {
	if c, ok := pj.cands[p]; ok {
		return c
	}
	c := candidatesFor(pj.g, p, pj.prm)
	pj.cands[p] = c
	return c
}

func (pj *oracleProjector) snap(p, o geo.Point, m snapMode) (roadnet.Location, bool) {
	k := oracleSnapKey{p: p, o: o, m: m}
	if v, hit := pj.snaps[k]; hit {
		return v.loc, v.ok
	}
	loc, ok := snapPoint(pj.g, pj.prm, pj.candidates(p), p, o, m)
	pj.snaps[k] = snapVal{loc: loc, ok: ok}
	return loc, ok
}

// bridgeBetween is PathBetweenLocationsCtx through the memo. A failure
// observed while the context is cancelled is not cached — it means
// "aborted", not "unreachable", and must not outlive the cancellation.
func (pj *oracleProjector) bridgeBetween(ctx context.Context, done <-chan struct{}, a, b roadnet.Location) (roadnet.Route, bool) {
	k := [2]roadnet.Location{a, b}
	if br, hit := pj.bridges[k]; hit {
		return br.part, br.ok
	}
	part, _, ok := pj.g.PathBetweenLocationsCtx(ctx, a, b)
	if !ok && graphalg.Stopped(done) {
		return nil, false
	}
	pj.bridges[k] = oracleBridge{part: part, ok: ok}
	return part, ok
}

// Project converts a point sequence to a route, serving candidate searches
// and bridges from the memo.
func (pj *oracleProjector) Project(ctx context.Context, pts []geo.Point) (roadnet.Route, error) {
	return oracleProjectWith(ctx, pj.g, pts, pj.snap, pj.bridgeBetween)
}

// oracleBridgeFn produces the shortest-path bridge between two locations.
type oracleBridgeFn func(ctx context.Context, done <-chan struct{}, a, b roadnet.Location) (roadnet.Route, bool)

// oracleSnapFn snaps point p to a network location, orienting by its
// neighbour o per mode m; ok=false when p has no candidate edges.
type oracleSnapFn func(p, o geo.Point, m snapMode) (roadnet.Location, bool)

func oracleStitchWith(ctx context.Context, g *roadnet.Graph, locs []roadnet.Location, bridge oracleBridgeFn) (roadnet.Route, error) {
	done := ctx.Done()
	var route roadnet.Route
	have := false
	cur := roadnet.Location{}
	for _, l := range locs {
		if graphalg.Stopped(done) {
			return nil, ctx.Err()
		}
		if !have {
			route = roadnet.Route{l.Edge}
			cur = l
			have = true
			continue
		}
		part, ok := bridge(ctx, done, cur, l)
		if !ok {
			continue
		}
		joined, ok := route.AppendConcat(g, part)
		if !ok {
			continue
		}
		route = joined
		cur = l
	}
	if !have || len(route) == 0 {
		return nil, ErrNoRoute
	}
	return route, nil
}

func oracleProjectWith(ctx context.Context, g *roadnet.Graph, pts []geo.Point, snap oracleSnapFn, bridge oracleBridgeFn) (roadnet.Route, error) {
	if len(pts) == 0 {
		return nil, ErrNoRoute
	}
	done := ctx.Done()
	locs := make([]roadnet.Location, 0, len(pts))
	for i, p := range pts {
		if graphalg.Stopped(done) {
			return nil, ctx.Err()
		}
		var loc roadnet.Location
		var ok bool
		switch {
		case i+1 < len(pts):
			loc, ok = snap(p, pts[i+1], snapToNext)
		case i > 0:
			loc, ok = snap(p, pts[i-1], snapFromPrev)
		default:
			loc, ok = snap(p, p, snapLone)
		}
		if !ok {
			continue
		}
		locs = append(locs, loc)
	}
	return oracleStitchWith(ctx, g, locs, bridge)
}
