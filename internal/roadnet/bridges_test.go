package roadnet

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
)

// patchyGrid is a rows×cols street grid where each block side is two-way,
// one-way or missing at random, so some vertex pairs have no route.
func patchyGrid(rows, cols int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddVertex(geo.Pt(float64(c)*100, float64(r)*100))
		}
	}
	link := func(u, v VertexID) {
		switch rng.Intn(4) {
		case 0, 1:
			b.AddBidirectional(u, v, 15, nil)
		case 2:
			b.AddEdge(u, v, 15, nil)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				link(v, v+1)
			}
			if r+1 < rows {
				link(v, v+cols)
			}
		}
	}
	return b.Build()
}

// TestBridgesMatchEdgePath: on random vertex pairs — unreachable ones, equal
// ends and ids off the graph included — the memo answers exactly what
// EdgePathBetweenVertices does, in either accelerator mode, and searches
// once per distinct (from, to) pair between two Resets. Appending to an
// answer must not reach into the arena.
func TestBridgesMatchEdgePath(t *testing.T) {
	for _, accel := range []AccelMode{AccelCH, AccelDijkstra} {
		g := patchyGrid(6, 7, 3)
		g.SetAccel(accel)
		rng := rand.New(rand.NewSource(17))
		var b Bridges
		unreachable := 0
		for pair := 0; pair < 40; pair++ {
			b.Reset(g)
			// A small pool per pair, so pairs are asked again.
			pool := make([][2]VertexID, 1+rng.Intn(8))
			for i := range pool {
				pool[i] = [2]VertexID{rng.Intn(g.NumVertices()+2) - 1, rng.Intn(g.NumVertices()+2) - 1}
			}
			distinct := make(map[[2]VertexID]bool)
			for ask := 0; ask < 30; ask++ {
				uv := pool[rng.Intn(len(pool))]
				distinct[uv] = true
				want, _, wantOK := g.EdgePathBetweenVertices(uv[0], uv[1])
				got, ok := b.Path(context.Background(), uv[0], uv[1])
				if ok != wantOK || !got.Equal(want) {
					t.Fatalf("%v %v→%v: memo %v, %v; EdgePathBetweenVertices %v, %v", accel, uv[0], uv[1], got, ok, want, wantOK)
				}
				if !ok {
					unreachable++
				}
				_ = append(got, -7)
			}
			if b.misses != len(distinct) {
				t.Fatalf("%v pair %d: %d searches for %d distinct bridges", accel, pair, b.misses, len(distinct))
			}
			var want [][2]VertexID
			for uv := range distinct {
				want = append(want, uv)
			}
			slices.SortFunc(want, func(x, y [2]VertexID) int { return slices.Compare(x[:], y[:]) })
			if got := b.Pairs(); !slices.Equal(got, want) {
				t.Fatalf("%v pair %d: Pairs %v, want %v", accel, pair, got, want)
			}
		}
		if unreachable == 0 {
			t.Fatalf("%v: no unreachable pair was asked", accel)
		}
	}
}

// TestBridgesCancelledFailureNotCached: a search that fails because its
// context was cancelled is not remembered — asked again under a live
// context, the bridge is searched and found — while a genuine failure is.
func TestBridgesCancelledFailureNotCached(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var b Bridges
	for _, accel := range []AccelMode{AccelCH, AccelDijkstra} {
		// A* polls its context every 64 pops: the far corner of a 20×20
		// grid lies past the first poll.
		g := NewGrid(20, 20, 100, 15)
		g.SetAccel(accel)
		b.Reset(g)
		u, v := 0, g.NumVertices()-1
		if r, ok := b.Path(dead, u, v); ok {
			t.Fatalf("%v: cancelled search found %v", accel, r)
		}
		want, _, _ := g.EdgePathBetweenVertices(u, v)
		if r, ok := b.Path(context.Background(), u, v); !ok || !r.Equal(want) || b.misses != 2 {
			t.Fatalf("%v: after a cancelled search %v, %v after %d searches; want %v after 2", accel, r, ok, b.misses, want)
		}
	}

	oneWay := NewBuilder()
	x, y := oneWay.AddVertex(geo.Pt(0, 0)), oneWay.AddVertex(geo.Pt(100, 0))
	oneWay.AddEdge(x, y, 15, nil)
	b.Reset(oneWay.Build())
	for i := 0; i < 2; i++ {
		if r, ok := b.Path(context.Background(), y, x); ok || b.misses != 1 {
			t.Fatalf("ask %d against a one-way street: %v, %v after %d searches; want a failure searched once", i, r, ok, b.misses)
		}
	}
}

// TestBridgesAppendConcat: joining through the memo equals Route.AppendConcat.
func TestBridgesAppendConcat(t *testing.T) {
	g := patchyGrid(5, 5, 9)
	rng := rand.New(rand.NewSource(4))
	var b Bridges
	b.Reset(g)
	for i := 0; i < 300; i++ {
		r := Route{EdgeID(rng.Intn(g.NumSegments()))}
		s := Route{EdgeID(rng.Intn(g.NumSegments()))}
		want, wantOK := append(Route(nil), r...).AppendConcat(g, s)
		got, ok := b.AppendConcat(append(Route(nil), r...), s)
		if ok != wantOK || !got.Equal(want) {
			t.Fatalf("%v ◇ %v: memo %v, %v; AppendConcat %v, %v", r, s, got, ok, want, wantOK)
		}
	}
}
