package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/roadnet"
)

// refSet builds a LocalRoute.Refs id slice: sorted ascending, deduplicated —
// the invariant scoring maintains for every published reference list.
func refSet(ids ...int) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		out = append(out, int32(id))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// refMap builds the map-shaped id set the network-free extension keeps.
func refMap(ids ...int) map[int]struct{} {
	s := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// transitionConfidence is Equation 2 over id sets — the map-based oracle
// jaccardConf (the same function over sorted slices) is checked against:
// both must produce identical inter/union integers, hence identical scores.
func transitionConfidence(a, b map[int]struct{}) float64 {
	inter, union := 0, len(b)
	for id := range a {
		if _, ok := b[id]; ok {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return math.Exp(-1)
	}
	return math.Exp(float64(inter)/float64(union) - 1)
}

// testPairContext assembles a pairContext (with its own scratch arena) whose
// dense per-edge bitsets encode the given edge → reference-id assignment —
// the unit-test stand-in for buildPairContext.
func testPairContext(m map[roadnet.EdgeID][]int) *pairContext {
	sc := newPairScratch()
	ctx := &sc.pctx
	*ctx = pairContext{sc: sc}
	edges := make([]roadnet.EdgeID, 0, len(m))
	maxEdge := roadnet.EdgeID(0)
	var all []int32
	for e, ids := range m {
		edges = append(edges, e)
		if e > maxEdge {
			maxEdge = e
		}
		for _, id := range ids {
			all = append(all, int32(id))
		}
	}
	slices.Sort(all)
	sc.ids = slices.Compact(all)
	ctx.ids = sc.ids
	ctx.words = (len(ctx.ids) + 63) / 64
	sc.beginPair(int(maxEdge) + 1)
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	for _, e := range edges {
		set := ctx.touchEdge(e)
		for _, id := range m[e] {
			di := ctx.idIndex(int32(id))
			set[di>>6] |= 1 << (di & 63)
		}
	}
	return ctx
}

func TestPopularityStableBeatsBursty(t *testing.T) {
	// Figure 6: R_a has stable traffic (2 refs on each of 3 segments),
	// R_b has a burst (6 refs on one segment, none elsewhere). Same union
	// size; R_a must score higher.
	ra := testPairContext(map[roadnet.EdgeID][]int{0: {1, 2}, 1: {3, 4}, 2: {5, 6}})
	rb := testPairContext(map[roadnet.EdgeID][]int{0: {1, 2, 3, 4, 5, 6}, 1: {}, 2: {}})
	fa, ua := popularity(roadnet.Route{0, 1, 2}, ra)
	fb, ub := popularity(roadnet.Route{0, 1, 2}, rb)
	if len(ua) != 6 || len(ub) != 6 {
		t.Fatalf("unions: %d, %d", len(ua), len(ub))
	}
	if fa <= fb {
		t.Fatalf("stable route f=%v not above bursty f=%v", fa, fb)
	}
}

func TestPopularityGrowsWithSupport(t *testing.T) {
	small := testPairContext(map[roadnet.EdgeID][]int{0: {1}, 1: {2}})
	big := testPairContext(map[roadnet.EdgeID][]int{0: {1, 3, 5}, 1: {2, 4, 6}})
	fs, _ := popularity(roadnet.Route{0, 1}, small)
	fb, _ := popularity(roadnet.Route{0, 1}, big)
	if fb <= fs {
		t.Fatalf("more references should raise popularity: %v vs %v", fb, fs)
	}
}

func TestPopularityNoReferences(t *testing.T) {
	f, u := popularity(roadnet.Route{0, 1}, testPairContext(map[roadnet.EdgeID][]int{}))
	if f != 0 || len(u) != 0 {
		t.Fatalf("unsupported route: f=%v union=%d", f, len(u))
	}
}

func TestPopularitySingleSegmentUsesSmoothing(t *testing.T) {
	er := testPairContext(map[roadnet.EdgeID][]int{0: {1, 2, 3}})
	f, u := popularity(roadnet.Route{0}, er)
	if len(u) != 3 {
		t.Fatalf("union = %d", len(u))
	}
	// Entropy of a single segment is 0; smoothing keeps ranking by support.
	want := 3 * entropySmoothing
	if math.Abs(f-want) > 1e-12 {
		t.Fatalf("f = %v, want %v", f, want)
	}
}

func TestPopularityRefsSortedAndFresh(t *testing.T) {
	pctx := testPairContext(map[roadnet.EdgeID][]int{0: {7, 3}, 1: {5, 3}})
	_, u := popularity(roadnet.Route{0, 1}, pctx)
	if !slices.Equal(u, []int32{3, 5, 7}) {
		t.Fatalf("union ids = %v, want [3 5 7]", u)
	}
	// The returned slice must survive the next pair reusing the scratch.
	_, u2 := popularity(roadnet.Route{0}, pctx)
	if !slices.Equal(u, []int32{3, 5, 7}) {
		t.Fatalf("union ids mutated by a later call: %v", u)
	}
	if !slices.Equal(u2, []int32{3, 7}) {
		t.Fatalf("second union = %v, want [3 7]", u2)
	}
}

func TestTransitionConfidenceBounds(t *testing.T) {
	// Identical sets -> 1 (maximum).
	a := refMap(1, 2, 3)
	if g := transitionConfidence(a, refMap(1, 2, 3)); math.Abs(g-1) > 1e-12 {
		t.Fatalf("identical sets: g = %v", g)
	}
	// Disjoint sets -> 1/e (minimum).
	if g := transitionConfidence(a, refMap(4, 5)); math.Abs(g-math.Exp(-1)) > 1e-12 {
		t.Fatalf("disjoint sets: g = %v", g)
	}
	// Partial overlap strictly between.
	g := transitionConfidence(a, refMap(1, 2, 9))
	if g <= math.Exp(-1) || g >= 1 {
		t.Fatalf("partial overlap: g = %v", g)
	}
	// Empty-empty defined as the minimum.
	if g := transitionConfidence(refMap(), refMap()); math.Abs(g-math.Exp(-1)) > 1e-12 {
		t.Fatalf("empty sets: g = %v", g)
	}
}

// TestJaccardConfMatchesTransitionConfidence: the sorted-slice merge and the
// map intersection are the same Equation 2 — identical scores on identical
// sets, across overlap degrees.
func TestJaccardConfMatchesTransitionConfidence(t *testing.T) {
	cases := [][2][]int{
		{{1, 2, 3}, {1, 2, 3}},
		{{1, 2, 3}, {4, 5}},
		{{1, 2, 3}, {1, 2, 9}},
		{{}, {}},
		{{7}, {}},
		{{1, 3, 5, 7}, {2, 3, 5, 8}},
	}
	for _, c := range cases {
		want := transitionConfidence(refMap(c[0]...), refMap(c[1]...))
		got := jaccardConf(refSet(c[0]...), refSet(c[1]...))
		if got != want {
			t.Fatalf("jaccardConf(%v,%v) = %v, transitionConfidence = %v",
				c[0], c[1], got, want)
		}
	}
}

func TestTransitionConfidenceMonotoneInOverlap(t *testing.T) {
	a := refMap(1, 2, 3, 4)
	as := refSet(1, 2, 3, 4)
	prev := -1.0
	for k := 0; k <= 4; k++ {
		ids := make([]int, 0, 4)
		for i := 1; i <= k; i++ {
			ids = append(ids, i) // overlap grows with k
		}
		for i := 10; len(ids) < 4; i++ {
			ids = append(ids, i)
		}
		g := transitionConfidence(a, refMap(ids...))
		if g < prev {
			t.Fatalf("g not monotone in overlap at k=%d: %v < %v", k, g, prev)
		}
		if gs := jaccardConf(as, refSet(ids...)); gs != g {
			t.Fatalf("slice/map disagreement at k=%d: %v vs %v", k, gs, g)
		}
		prev = g
	}
}
